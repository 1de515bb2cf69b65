package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// maxTracedOps caps the trace file: a mem-mix run traces ~600 000
// operations, four spans each. Every operation's spans are in memory
// and in the metrics; the file keeps an even 1-in-n sample.
const maxTracedOps = 50_000

// writeTrace writes the sampled spans of every connection as one JSON
// document. An operation's spans share its id; the op span is the
// parent of the three client spans. Times are ns since the run began.
func writeTrace(dir, workload string, cs []*conn) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	total := 0
	for _, cn := range cs {
		total += len(cn.spans)
	}
	every := (total + maxTracedOps - 1) / maxTracedOps
	if every < 1 {
		every = 1
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "{\"workload\":%q,\"traced_ops\":%d,\"sampled_one_in\":%d,\"spans\":[", workload, total, every)
	first := true
	span := func(cn *conn, sp *opSpan, name, parent string, start, end int64) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, "\n{\"op\":\"c%d-%d\",\"name\":%q,\"parent\":%q,\"start_ns\":%d,\"end_ns\":%d}",
			cn.id, sp.id, name, parent, start, end)
	}
	for _, cn := range cs {
		for i := 0; i < len(cn.spans); i += every {
			sp := &cn.spans[i]
			if sp.end == 0 {
				continue // its reply never came; the failure is counted elsewhere
			}
			op := kindNames[sp.kind]
			span(cn, sp, op, "", sp.due, sp.end)
			if sp.kind == opXfer {
				span(cn, sp, "client.atomic", op, sp.start, sp.end)
				continue
			}
			span(cn, sp, "client.enqueue", op, sp.start, sp.enqEnd)
			span(cn, sp, "client.flush", op, sp.flushStart, sp.flushEnd)
			span(cn, sp, "client.wait", op, sp.flushEnd, sp.end)
		}
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
