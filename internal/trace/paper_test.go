package trace_test

import (
	"bytes"
	"context"
	"testing"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/outline"
	"funcytuner/internal/trace"
)

// paperTrace runs the paper-scale CloverLeaf/Broadwell session (K=1000,
// top-50, collection then CFR) under the given fault rates with a trace
// recorder attached, and returns its canonical trace: what a traced
// repository entry of that run stores.
func paperTrace(tb testing.TB, rates faults.Rates) *trace.Trace {
	tb.Helper()
	prog := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	tc := compiler.NewToolchain(flagspec.ICC())
	res, err := outline.AutoOutline(tc, prog, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig("paper-trace")
	cfg.Faults = rates
	sess, err := core.NewSession(tc, prog, res.Partition, m, in, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rec := trace.NewRecorder()
	sess.AttachTrace(rec)
	ctx := context.Background()
	col, err := sess.Collect(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.CFR(ctx, col); err != nil {
		tb.Fatal(err)
	}
	return rec.Snapshot().Canonical()
}

// A faulted paper-scale trace, with its retry, fault and lost-evaluation
// events, encodes to the encoding/json reference's bytes, and decodes
// line by line to the reference's events and back to the trace.
func TestPaperTraceEncodesAsReference(t *testing.T) {
	tr := paperTrace(t, faults.Default())
	var doc bytes.Buffer
	if err := tr.WriteJSONL(&doc); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	seen := map[string]bool{}
	for _, e := range tr.Events {
		line, err := trace.RefMarshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(line, '\n'))
		seen[string(e.Kind)] = true
		if e.Kind == trace.KindEval && e.Name == "lost" {
			seen["lost eval"] = true
		}
	}
	for _, k := range []string{string(trace.KindRetry), string(trace.KindFault), "lost eval"} {
		if !seen[k] {
			t.Errorf("the faulted paper-scale trace has no %s event", k)
		}
	}
	if !bytes.Equal(doc.Bytes(), want.Bytes()) {
		t.Fatal("WriteJSONL of the faulted paper-scale trace differs from the encoding/json reference")
	}
	dec, err := trace.ReadJSONL(bytes.NewReader(doc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(tr, dec); d != "" {
		t.Fatalf("decoded trace differs: %s", d)
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(doc.Bytes(), []byte("\n")), []byte("\n")) {
		ref, err := trace.RefDecode(line)
		if err != nil {
			t.Fatal(err)
		}
		if ref != dec.Events[i] {
			t.Fatalf("line %d decoded to %+v, encoding/json gives %+v", i+1, dec.Events[i], ref)
		}
	}
}

// BenchmarkTraceJSONL encodes and decodes the canonical trace of the
// paper-scale CloverLeaf/Broadwell session, about 8,000 events: the
// trace a traced repository entry stores on every Put and decodes on
// every serve to a tracing caller.
func BenchmarkTraceJSONL(b *testing.B) {
	tr := paperTrace(b, faults.Rates{})
	var doc bytes.Buffer
	if err := tr.WriteJSONL(&doc); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(doc.Len()))
		var out bytes.Buffer
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := tr.WriteJSONL(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(doc.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := trace.ReadJSONL(bytes.NewReader(doc.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
