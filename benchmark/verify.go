package main

import (
	"fmt"
	"time"
)

// verifier checks a finished run's outputs against what was
// acknowledged. Each check is an attempted operation, each mismatch a
// failed one; the keys read back count on their connections.
type verifier struct {
	wd                *world
	cs                []*conn
	attempted, failed int64
	firstErr          error

	// What the restart on the same data directory found (zero without
	// one, and on a cluster).
	recoverSeconds float64
	recoveredOps   int64
}

// expect counts one check and records err when ok is false.
func (v *verifier) expect(ok bool, format string, args ...any) {
	v.attempted++
	if ok {
		return
	}
	v.failed++
	if v.firstErr == nil {
		v.firstErr = fmt.Errorf(format, args...)
	}
}

// verify reads the final state back; on a durable single node it then
// stops the server, builds a new one on the same data directory — where
// everything acknowledged must still be — and reads back again. The
// error is for a restart that could not be made at all.
func verify(w spec, wd *world, cs []*conn) (*verifier, error) {
	v := &verifier{wd: wd, cs: cs}
	var adds, mutations int64
	for _, cn := range cs {
		adds += cn.adds
		mutations += cn.mutAcked
	}
	v.readBack(w, adds)
	if !w.Durable || w.Nodes > 1 {
		return v, nil
	}
	if err := v.restart(); err != nil {
		return nil, fmt.Errorf("restart on the same data directory: %w", err)
	}
	v.expect(v.recoveredOps == mutations, "recovered %d mutations, %d were acknowledged", v.recoveredOps, mutations)
	v.readBack(w, adds)
	return v, nil
}

// readBack checks every key against its owner's last acknowledged put,
// the registers against the transfers' invariant (they sum to zero),
// the shard-0 counter against the acknowledged adds.
func (v *verifier) readBack(w spec, ackedAdds int64) {
	c := v.cs[0].c
	if w.RegisterAdd {
		got, err := c.Get(0)
		v.expect(err == nil && got == ackedAdds, "shard 0 counter = %d (%v), %d adds were acknowledged", got, err, ackedAdds)
		return
	}
	err := eachConn(v.cs, (*conn).readBack)
	v.expect(err == nil, "read-back: %v", err)
	var sum int64
	for _, name := range v.wd.regNames {
		val, found, err := c.RegGet(name)
		v.expect(err == nil && found, "register %s: found %v, %v", name, found, err)
		sum += val
	}
	v.expect(sum == 0, "registers sum to %d after transfers that each move one unit", sum)
}

// restart shuts the server down and builds a new one on the same data
// directory, timing server.New through Listen (recovery) and
// reconnecting every connection.
func (v *verifier) restart() error {
	for _, cn := range v.cs {
		cn.c.Close()
	}
	if err := v.wd.stopServers(); err != nil {
		return err
	}
	start := time.Now()
	if err := v.wd.startServers(); err != nil {
		return err
	}
	v.recoverSeconds = time.Since(start).Seconds()
	v.recoveredOps = int64(v.wd.servers[0].Recovery().RecoveredOps)
	for _, cn := range v.cs {
		var err error
		if cn.c, err = v.wd.dial(cn.id); err != nil {
			return err
		}
	}
	return nil
}
