package server_test

import (
	"testing"

	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// BenchmarkQuorumRound is one depth-8 pipelined burst of register adds
// at shard 0's primary in a 3-node in-process cluster (fsync=always on
// every node, no injected delay), every ack gated on the majority
// quorum: the follower pulls, the covering fsyncs and the quorum wait
// are all inside the round. diskB/pull is what the primary's WAL read
// back per pull it served; it must not grow with b.N, i.e. with how
// full the active segment is. records/op is what every node's pulls
// shipped per acked op: a record crosses the cluster once per follower
// (N−1 = 2), not once per stream (6).
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

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(uint64(1+i)*depth + 1)
	}
	b.StopTimer()

	waitReplicated(b, nodes)
	after := owner.srv.Stats()
	if got, want := after.QuorumAcks-before.QuorumAcks, int64(b.N*depth); got != want {
		b.Fatalf("%d acks passed the quorum gate, want %d", got, want)
	}
	perOp := float64(shipped()-shipped0) / float64(b.N*depth)
	if perOp > 2.05 {
		b.Fatalf("%.2f records shipped per acked op, want at most N-1 = 2: a record crossed the cluster more than once per follower", perOp)
	}
	b.ReportMetric(perOp, "records/op")
	b.ReportMetric(float64(after.WALReadBytes-before.WALReadBytes)/float64(after.ReplPullsServed-before.ReplPullsServed), "diskB/pull")
	b.ReportMetric(float64(b.N*depth)/float64(after.WALFsyncs-before.WALFsyncs), "ops/fsync")
}
