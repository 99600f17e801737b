package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/trace"
)

// pinSpec is a spec with every optional field the wire carries for a
// tuning job set: a fault rate, a technique and the adaptive stop.
func pinSpec() Spec {
	return Spec{Benchmark: "LULESH", Machine: "opteron", Samples: 40, TopX: 5, Seed: "pin", FaultRate: 0.35, Technique: "bo", Adaptive: true}
}

// pinRequests are a collect claim with one CV row and a cfr claim that
// assembles several.
func pinRequests() (collect, cfr core.EvalRequest) {
	space := flagspec.ICC()
	base := space.Baseline()
	collect = core.EvalRequest{Phase: "collect", Sample: 0, CVs: []flagspec.CV{base}}
	cfr = core.EvalRequest{Phase: "cfr", Sample: 7, CVs: []flagspec.CV{base, base.With(0, space.AltValue(0)), base.With(5, space.AltValue(5))}}
	return collect, cfr
}

// pinOutcome is a lost collect evaluation as a worker measures it: per
// module times, a +Inf total, its cost, quarantined CVs and its span.
func pinOutcome() core.EvalOutcome {
	span := trace.NewSpanBatch("collect", 0)
	span.Add(trace.Event{Kind: trace.KindCompile, Modules: 3, Seconds: 4.5, Sim: 4.5})
	span.Add(trace.Event{Kind: trace.KindFault, Name: "run-crash", Seconds: 0.25, Sim: 4.75})
	span.Add(trace.Event{Kind: trace.KindEval, Name: "lost", Seconds: math.Inf(1), Sim: 4.75})
	return core.EvalOutcome{
		PerModule:   []float64{1.5, math.Inf(1)},
		Total:       math.Inf(1),
		Cost:        core.CostSnapshot{Compiles: 3, Runs: 1, SimMicros: 4750000, FaultMicros: 250000, RunCrashes: 1},
		Quarantined: []uint64{0xdeadbeef, 42},
		Events:      span.Events(),
	}
}

// pinClaim is the claim batch response that grants pinRequests' claims
// to worker w1, and pinReport that worker's report batch request for
// them: pinOutcome for the collect claim and an error for the cfr one.
const (
	pinClaim   = `{"tasks":[{"id":"job-a/collect/0#1","job":"job-a","spec":{"benchmark":"CL","machine":"broadwell","samples":24,"topx":6,"seed":"fleet-test","fault_rate":1},"phase":"collect","sample":0,"cvs":[[2,0,1,3,0,0,0,2,1,2,0,0,0,1,0,0,1,0,0,0,1,0,0,1,0,0,0,0,1,0,0,0,0]],"epoch":1,"lease_millis":60000,"heartbeat_millis":15000},{"id":"job-b/cfr/7#2","job":"job-b","spec":{"benchmark":"LULESH","machine":"opteron","samples":40,"topx":5,"seed":"pin","fault_rate":0.35,"technique":"bo","adaptive":true},"phase":"cfr","sample":7,"cvs":[[2,0,1,3,0,0,0,2,1,2,0,0,0,1,0,0,1,0,0,0,1,0,0,1,0,0,0,0,1,0,0,0,0],[0,0,1,3,0,0,0,2,1,2,0,0,0,1,0,0,1,0,0,0,1,0,0,1,0,0,0,0,1,0,0,0,0],[2,0,1,3,0,1,0,2,1,2,0,0,0,1,0,0,1,0,0,0,1,0,0,1,0,0,0,0,1,0,0,0,0]],"epoch":1,"lease_millis":60000,"heartbeat_millis":15000}],"granted":256}` + "\n"
	pinReports = `{"worker":"w1","reports":[{"task":"job-a/collect/0#1","epoch":1,"outcome":{"per_module":["0x1.8p+00","+Inf"],"total":"+Inf","cost":{"compiles":3,"runs":1,"sim_micros":4750000,"retries":0,"wasted_compiles":0,"fault_micros":250000,"compile_fails":0,"run_crashes":1,"timeouts":0,"flakes":0},"quarantined":["deadbeef","2a"],"events":[{"kind":"compile","phase":"collect","sample":0,"modules":3,"seconds":"0x1.2p+02","sim":"0x1.2p+02"},{"kind":"fault","phase":"collect","sample":0,"step":1,"name":"run-crash","seconds":"0x1p-02","sim":"0x1.3p+02"},{"kind":"eval","phase":"collect","sample":0,"step":2,"name":"lost","seconds":"+Inf","sim":"0x1.3p+02"}]}},{"task":"job-b/cfr/7#2","epoch":1,"error":"exec: LULESH run crashed (signal 11)"}]`
	pinReport  = pinReports + `}`
	// pinReportMax is pinReport asking for up to 16 more tasks, and
	// pinAnswer and pinAnswerTasks the coordinator's answers to the two:
	// the verdicts alone when no task is ready, and with the third claim,
	// pinNext, when it is.
	pinReportMax   = pinReports + `,"max":16}`
	pinAnswer      = `{"accepted":[true,true]}` + "\n"
	pinAnswerTasks = `{"accepted":[true,true],"tasks":[{"id":"job-a/collect/1#3","job":"job-a","spec":{"benchmark":"CL","machine":"broadwell","samples":24,"topx":6,"seed":"fleet-test","fault_rate":1},"phase":"collect","sample":1,"cvs":[[2,0,1,3,0,0,0,2,1,2,0,0,0,1,0,0,1,0,0,0,1,0,0,1,0,0,0,0,1,0,0,0,0]],"epoch":1,"lease_millis":60000,"heartbeat_millis":15000}]}` + "\n"
)

// pinNext is a third claim, queued once pinClaim's two are granted.
func pinNext() core.EvalRequest {
	collect, _ := pinRequests()
	collect.Sample = 1
	return collect
}

// TestWireBatchesPinned pins the bytes of the batch messages: the claim
// batch response the coordinator writes, the report batch request a
// worker writes, with and without max, and the coordinator's answer to
// one with max that grants a task, and checks that the other side
// decodes them to the values that were sent. Coordinators and workers
// of different builds talk to each other across a rolling restart, so
// none may change.
func TestWireBatchesPinned(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	collect, cfr := pinRequests()
	f1, err := coord.enqueue("job-a", testSpec(), collect)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := coord.enqueue("job-b", pinSpec(), cfr)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := f1.tasks[0], f2.tasks[0]

	// A claim for more than the coordinator grants at once is clamped,
	// and the response says so in granted.
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/claimbatch", strings.NewReader(`{"worker":"w1","max":300}`)))
	if rec.Code != http.StatusOK || rec.Body.String() != pinClaim {
		t.Fatalf("claim batch response changed: status %d\n got %s\nwant %s", rec.Code, rec.Body, pinClaim)
	}
	wantTasks := []*Task{
		{ID: t1.id, Job: "job-a", Spec: testSpec(), Phase: "collect", Sample: 0, CVs: encodeCVs(collect.CVs), Epoch: 1, LeaseMillis: 60000, HeartbeatMillis: 15000},
		{ID: t2.id, Job: "job-b", Spec: pinSpec(), Phase: "cfr", Sample: 7, CVs: encodeCVs(cfr.CVs), Epoch: 1, LeaseMillis: 60000, HeartbeatMillis: 15000},
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, pinClaim)
	}))
	defer stub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	ts, granted, err := newClient(stub.URL, nil).claimBatch(ctx, "w1", 0, 300)
	if err != nil || granted != maxClaimBatch || !reflect.DeepEqual(ts, wantTasks) {
		t.Fatalf("worker decoded the claim batch as %+v, granted %d, %v; want %+v, granted %d", ts, granted, err, wantTasks, maxClaimBatch)
	}

	// The worker reports an outcome for the first task and an error for
	// the second, asking for up to 16 more tasks or for none; the
	// coordinator resolves both from the bytes and grants the third
	// task, queued meanwhile, and the worker decodes the grant.
	reports := []TaskReport{
		{Task: t1.id, Epoch: 1, Outcome: encodeOutcome(pinOutcome())},
		{Task: t2.id, Epoch: 1, Error: "exec: LULESH run crashed (signal 11)"},
	}
	var sent string
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		sent = string(b)
		io.WriteString(w, pinAnswerTasks)
	}))
	defer sink.Close()
	f3, err := coord.enqueue("job-a", testSpec(), pinNext())
	if err != nil {
		t.Fatal(err)
	}
	wantNext := []*Task{{ID: f3.tasks[0].id, Job: "job-a", Spec: testSpec(), Phase: "collect", Sample: 1, CVs: encodeCVs(pinNext().CVs), Epoch: 1, LeaseMillis: 60000, HeartbeatMillis: 15000}}
	for _, tc := range []struct {
		max  int
		want string
	}{{0, pinReport}, {16, pinReportMax}} {
		accepted, next, err := newClient(sink.URL, nil).reportBatch(ctx, "w1", reports, tc.max)
		if err != nil {
			t.Fatal(err)
		}
		if sent != tc.want {
			t.Fatalf("report batch request with max %d changed:\n got %s\nwant %s", tc.max, sent, tc.want)
		}
		if !reflect.DeepEqual(accepted, []bool{true, true}) || !reflect.DeepEqual(next, wantNext) {
			t.Fatalf("worker decoded the report batch answer as %v, %+v; want [true true], %+v", accepted, next, wantNext)
		}
	}
	rec = httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/reportbatch", strings.NewReader(pinReportMax)))
	if rec.Code != http.StatusOK || rec.Body.String() != pinAnswerTasks {
		t.Fatalf("report batch answer changed: status %d\n got %s\nwant %s", rec.Code, rec.Body, pinAnswerTasks)
	}
	// An answer that grants nothing keeps the verdicts' bytes alone.
	rec = httptest.NewRecorder()
	writeReportBatch(rec, &reportBatchResponse{Accepted: []bool{true, true}})
	if rec.Body.String() != pinAnswer {
		t.Fatalf("report batch answer without tasks changed:\n got %s\nwant %s", rec.Body, pinAnswer)
	}
	if res := (<-f1.landed).res; res.err != nil || !reflect.DeepEqual(res.out, pinOutcome()) {
		t.Errorf("coordinator decoded the outcome as %+v, %v; want %+v", res.out, res.err, pinOutcome())
	}
	wantErr := "fleet: worker w1 failed task " + t2.id + ": exec: LULESH run crashed (signal 11)"
	if res := (<-f2.landed).res; res.err == nil || res.err.Error() != wantErr {
		t.Errorf("coordinator resolved the failed task with %v, want %s", res.err, wantErr)
	}
}

// pinLeases is a coordinator that has granted pinRequests' claims to
// worker w1, as pinClaim says, and queued pinNext's. It returns the
// ranges of the two granted claims.
func pinLeases(t *testing.T) (*Coordinator, *flight, *flight) {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	collect, cfr := pinRequests()
	f1, err := coord.enqueue("job-a", testSpec(), collect)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := coord.enqueue("job-b", pinSpec(), cfr)
	if err != nil {
		t.Fatal(err)
	}
	if ts, err := coord.ClaimBatch(context.Background(), "w1", 0, 2); err != nil || len(ts) != 2 {
		t.Fatalf("claim = %d tasks, %v", len(ts), err)
	}
	if _, err := coord.enqueue("job-a", testSpec(), pinNext()); err != nil {
		t.Fatal(err)
	}
	return coord, f1, f2
}

// TestReportBatchBodiesOverHTTP sends the coordinator report batches in
// shapes other than the one workers write. It answers each as
// decodeRequest, encoding/json's Decoder with unknown fields and bytes
// after the value refused, decides: 400 with that error for an unknown
// field, a truncation, bytes after the value or a max that is no
// integer, and the same verdicts and outcomes as for pinReport for
// whitespace or reordered fields. A max of at least one also grants the
// queued third claim (a max past the coordinator's cap is clamped to
// it); a max below one grants nothing.
func TestReportBatchBodiesOverHTTP(t *testing.T) {
	indent := func(body string) string {
		var indented bytes.Buffer
		if err := json.Indent(&indented, []byte(body), "", "  "); err != nil {
			t.Fatal(err)
		}
		return indented.String()
	}
	reordered := strings.Replace(pinReport, `{"worker":"w1","reports":`, `{"reports":`, 1)
	reordered = strings.Replace(reordered[:len(reordered)-1], `{"task":"job-b/cfr/7#2","epoch":1,`, `{"epoch":1,"task":"job-b/cfr/7#2",`, 1) + `,"worker":"w1"}`
	withMax := func(max string) string { return pinReports + `,"max":` + max + `}` }
	for _, tc := range []struct {
		name, body string
		ok, grants bool
	}{
		{"canonical", pinReport, true, false},
		{"whitespace", indent(pinReport), true, false},
		{"reordered", reordered, true, false},
		{"max", pinReportMax, true, true},
		{"max/whitespace", indent(pinReportMax), true, true},
		{"max/first", `{"max":16,` + reordered[1:], true, true},
		{"max/past-the-cap", withMax("1000"), true, true},
		{"max/zero", withMax("0"), true, false},
		{"max/negative", withMax("-3"), true, false},
		{"max/fraction", withMax("1.5"), false, false},
		{"bytes-after-the-value", pinReport + ` {"worker":"w9"}x`, false, false},
		{"unknown-field", strings.Replace(pinReport, `"worker":"w1"`, `"worker":"w1","lease":3`, 1), false, false},
		{"unknown-nested-field", strings.Replace(pinReport, `"flakes":0`, `"flakes":0,"spills":1`, 1), false, false},
		{"truncated", pinReport[:len(pinReport)/2], false, false},
		{"empty", "", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, f1, f2 := pinLeases(t)
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()
			resp, err := http.Post(srv.URL+"/fleet/reportbatch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var req reportBatchRequest
			decErr := decodeRequest(json.NewDecoder(strings.NewReader(tc.body)), &req)
			if (decErr == nil) != tc.ok {
				t.Fatalf("decodeRequest decodes the body with error %v", decErr)
			}
			if !tc.ok {
				want, _ := json.Marshal(map[string]string{"error": decErr.Error()})
				if resp.StatusCode != http.StatusBadRequest || string(got) != string(want)+"\n" {
					t.Fatalf("answered %d %s, want 400 %s", resp.StatusCode, got, want)
				}
				return
			}
			want := pinAnswer
			if tc.grants {
				want = pinAnswerTasks
			}
			if resp.StatusCode != http.StatusOK || string(got) != want {
				t.Fatalf("answered %d %s, want %s", resp.StatusCode, got, want)
			}
			if res := (<-f1.landed).res; res.err != nil || !reflect.DeepEqual(res.out, pinOutcome()) {
				t.Errorf("outcome decoded as %+v, %v", res.out, res.err)
			}
			if res := (<-f2.landed).res; res.err == nil || !strings.HasSuffix(res.err.Error(), ": exec: LULESH run crashed (signal 11)") {
				t.Errorf("failed task resolved with %v", res.err)
			}
		})
	}
}

// TestRequestBodiesOverHTTP sends the coordinator claim batch and
// heartbeat requests with bytes after their JSON value, which it
// refuses with 400, as it does a report batch's.
func TestRequestBodiesOverHTTP(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	refused, _ := json.Marshal(map[string]string{"error": errTrailingData.Error()})
	for _, tc := range []struct {
		name, path, body string
		code             int
	}{
		{"claimbatch", "/fleet/claimbatch", `{"worker":"w1","max":1}`, http.StatusNoContent},
		{"claimbatch/bytes-after-the-value", "/fleet/claimbatch", `{"worker":"w1","max":1} {"worker":"w9"}x`, http.StatusBadRequest},
		{"heartbeat", "/fleet/heartbeat", `{"worker":"w1","task":"t","epoch":1}`, http.StatusConflict},
		{"heartbeat/bytes-after-the-value", "/fleet/heartbeat", `{"worker":"w1","task":"t","epoch":1} {"worker":"w9"}x`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code {
				t.Fatalf("answered %d %s, want %d", resp.StatusCode, got, tc.code)
			}
			if tc.code == http.StatusBadRequest && string(got) != string(refused)+"\n" {
				t.Fatalf("answered 400 %s, want %s", got, refused)
			}
		})
	}
}

// TestClaimBatchBodiesOverHTTP serves a worker claim batch responses in
// shapes other than the one the coordinator writes. The worker decodes
// each as encoding/json's Decoder does: whitespace, unknown fields and
// bytes after the first value decode to pinClaim's tasks, and a
// truncated body fails with the decoder's error.
func TestClaimBatchBodiesOverHTTP(t *testing.T) {
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(pinClaim), "", "\t"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, body string }{
		{"canonical", pinClaim},
		{"whitespace", indented.String()},
		{"no-newline", strings.TrimSuffix(pinClaim, "\n")},
		{"unknown-fields", strings.Replace(strings.Replace(pinClaim, `"granted":256`, `"granted":256,"fleet":"f1"`, 1), `"epoch":1,`, `"epoch":1,"slot":2,`, 1)},
		{"bytes-after-the-value", pinClaim + `{"tasks":[]}` + "\x00"},
		{"truncated", pinClaim[:len(pinClaim)/3]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, tc.body)
			}))
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
			defer cancel()
			ts, granted, err := newClient(srv.URL, nil).claimBatch(ctx, "w1", 0, 300)
			var want claimBatchResponse
			if decErr := json.NewDecoder(strings.NewReader(tc.body)).Decode(&want); decErr != nil {
				wantErr := "fleet: decoding /fleet/claimbatch response: " + decErr.Error()
				if err == nil || err.Error() != wantErr {
					t.Fatalf("claim failed with %v, want %s", err, wantErr)
				}
				return
			}
			if err != nil || granted != want.Granted || !reflect.DeepEqual(ts, want.Tasks) {
				t.Fatalf("decoded %+v, granted %d, %v; want %+v, granted %d", ts, granted, err, want.Tasks, want.Granted)
			}
			if len(ts) != 2 || ts[1].Spec != pinSpec() {
				t.Fatalf("decoded %d tasks, second spec %+v", len(ts), ts[len(ts)-1].Spec)
			}
		})
	}
}

// TestReportBatchAnswersOverHTTP serves a worker report batch answers in
// shapes other than the one the coordinator writes. The worker decodes
// each as encoding/json's Decoder does: whitespace, unknown fields and
// bytes after the first value decode to pinAnswerTasks' verdicts and
// task, and a truncated body fails with the decoder's error.
func TestReportBatchAnswersOverHTTP(t *testing.T) {
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(pinAnswerTasks), "", "\t"); err != nil {
		t.Fatal(err)
	}
	reports := []TaskReport{{Task: "job-a/collect/0#1", Epoch: 1}, {Task: "job-b/cfr/7#2", Epoch: 1}}
	for _, tc := range []struct{ name, body string }{
		{"canonical", pinAnswerTasks},
		{"no-tasks", pinAnswer},
		{"whitespace", indented.String()},
		{"no-newline", strings.TrimSuffix(pinAnswerTasks, "\n")},
		{"tasks-first", `{"tasks":` + pinAnswerTasks[strings.Index(pinAnswerTasks, "["+`{"id"`):len(pinAnswerTasks)-2] + `,"accepted":[true,true]}`},
		{"unknown-fields", strings.Replace(pinAnswerTasks, `"epoch":1,`, `"epoch":1,"slot":2,`, 1)},
		{"bytes-after-the-value", pinAnswerTasks + `{"accepted":[]}` + "\x00"},
		{"truncated", pinAnswerTasks[:len(pinAnswerTasks)/3]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, tc.body)
			}))
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
			defer cancel()
			accepted, ts, err := newClient(srv.URL, nil).reportBatch(ctx, "w1", reports, 16)
			var want reportBatchResponse
			if decErr := json.NewDecoder(strings.NewReader(tc.body)).Decode(&want); decErr != nil {
				wantErr := "fleet: decoding /fleet/reportbatch response: " + decErr.Error()
				if err == nil || err.Error() != wantErr {
					t.Fatalf("report failed with %v, want %s", err, wantErr)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(accepted, want.Accepted) || !reflect.DeepEqual(ts, want.Tasks) {
				t.Fatalf("decoded %v, %+v, %v; want %v, %+v", accepted, ts, err, want.Accepted, want.Tasks)
			}
			if tc.name != "no-tasks" && (len(ts) != 1 || ts[0].Sample != 1) {
				t.Fatalf("decoded %d tasks, want pinNext's", len(ts))
			}
		})
	}
}
