package server_test

import (
	"fmt"
	"runtime"
	"testing"

	"kexclusion/internal/durable"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// BenchmarkPipelineDepth is one connection of register adds against one
// durable server under fsync=always, at depth 1 and depth 8. It counts
// fsyncs rather than timing them: a depth-8 burst arrives in one flush
// and its acks must share fsyncs (at least 4 per fsync), while depth-1
// acks never can (at most 1).
func BenchmarkPipelineDepth(b *testing.B) {
	for _, depth := range []int{1, 8} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			srv, addr := startServer(b, server.Config{N: 4, K: 2, Shards: 1, DataDir: b.TempDir(), Fsync: durable.SyncAlways})
			c := dial(b, addr)
			defer c.Close()
			ps := make([]*client.Pending, depth)
			before := srv.Stats()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ps {
					p, err := c.Go(wire.KindAdd, 0, 1, uint64(i*depth+j+1))
					if err != nil {
						b.Fatal(err)
					}
					ps[j] = p
				}
				for _, p := range ps {
					if _, err := p.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()

			perFsync := float64(b.N*depth) / float64(srv.Stats().WALFsyncs-before.WALFsyncs)
			b.ReportMetric(perFsync, "ops/fsync")
			if depth == 1 && perFsync > 1 {
				b.Fatalf("depth 1: %.2f acks per fsync, want at most 1: an ack skipped its fsync", perFsync)
			}
			if depth == 8 && perFsync < 4 {
				b.Fatalf("depth 8: %.2f acks per fsync, want at least 4: the burst did not share its fsyncs", perFsync)
			}
		})
	}
}

// BenchmarkQuorumRound is one depth-8 pipelined burst of register adds
// at shard 0's primary in a 3-node in-process cluster (fsync=always on
// every node, no injected delay), every ack gated on the majority
// quorum: the follower pulls, the covering fsyncs and the quorum wait
// are all inside the round. diskB/pull is what the primary's WAL read
// back off disk per pull it served: 0 for a caught-up follower, whose
// pulls decode the active segment from memory (rounds are sequential, so
// the followers are caught up whenever a rotation seals a segment).
// records/op is what every node's pulls shipped per acked op: a record
// crosses the cluster once per follower (N−1 = 2), not once per stream
// (6). allocs/round and B/round count the whole cluster's allocations;
// from 100 rounds on, more than 350 allocs a round fails.
func BenchmarkQuorumRound(b *testing.B) {
	const depth = 8
	nodes := startTestCluster(b, 3, 1, 2)
	owner := ownerOf(b, nodes, 0)
	c := dial(b, owner.addr)
	defer c.Close()
	shipped := func() (n int64) {
		for _, node := range nodes {
			n += node.srv.Stats().ReplRecordsServed
		}
		return n
	}
	round := func(first uint64) {
		var ps [depth]*client.Pending
		for i := range ps {
			p, err := c.Go(wire.KindAdd, 0, 1, first+uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			ps[i] = p
		}
		for _, p := range ps {
			if _, err := p.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	round(1) // first contact: followers connect and catch up
	waitReplicated(b, nodes)
	before, shipped0 := owner.srv.Stats(), shipped()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(uint64(1+i)*depth + 1)
	}
	b.StopTimer()

	runtime.ReadMemStats(&mem1)
	waitReplicated(b, nodes)
	after := owner.srv.Stats()
	if got, want := after.QuorumAcks-before.QuorumAcks, int64(b.N*depth); got != want {
		b.Fatalf("%d acks passed the quorum gate, want %d", got, want)
	}
	perOp := float64(shipped()-shipped0) / float64(b.N*depth)
	if perOp > 2.05 {
		b.Fatalf("%.2f records shipped per acked op, want at most N-1 = 2: a record crossed the cluster more than once per follower", perOp)
	}
	diskB := float64(after.WALReadBytes-before.WALReadBytes) / float64(after.ReplPullsServed-before.ReplPullsServed)
	if diskB != 0 {
		b.Fatalf("%.0f bytes read off disk per pull served, want 0: a caught-up follower's pull opened the WAL", diskB)
	}
	allocs := float64(mem1.Mallocs-mem0.Mallocs) / float64(b.N)
	if b.N >= 100 && allocs > 350 {
		b.Fatalf("%.0f allocs per round, want at most 350", allocs)
	}
	b.ReportMetric(perOp, "records/op")
	b.ReportMetric(diskB, "diskB/pull")
	b.ReportMetric(allocs, "allocs/round")
	b.ReportMetric(float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(b.N), "B/round")
	b.ReportMetric(float64(b.N*depth)/float64(after.WALFsyncs-before.WALFsyncs), "ops/fsync")
}
