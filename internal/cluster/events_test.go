package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// logBuffer is a log destination a test reads while the router writes.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// records decodes every record written so far with message msg.
func (b *logBuffer) records(t *testing.T, msg string) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		if line == "" {
			continue // nothing logged yet
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] == msg {
			out = append(out, rec)
		}
	}
	return out
}

// gate is a held listener that, while shut, closes every connection it
// accepts: the instance behind it is dead without giving up its port.
type gate struct {
	net.Listener
	shut atomic.Bool
}

func (g *gate) Accept() (net.Conn, error) {
	for {
		c, err := g.Listener.Accept()
		if err != nil || !g.shut.Load() {
			return c, err
		}
		c.Close()
	}
}

// TestProbeLogsEachTransitionOnce: a router probing every 10 ms an
// instance that dies and comes back logs one "instance down" and then
// one "instance healthy" — a record per change of state, not per probe.
func TestProbeLogsEachTransitionOnce(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	g := &gate{Listener: ts.Listener}
	ts.Listener = g
	ts.Start()
	defer ts.Close()
	var logs logBuffer
	rt, err := NewRouter(RouterConfig{Instances: []Instance{{ID: "c0", BaseURL: ts.URL}}, Log: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	var probes atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rt.Probe(context.Background())
				probes.Add(1)
			}
		}
	}()
	await := func(want instanceState) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); memberState(t, rt, "c0") != want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("c0 never became %v", want)
			}
		}
	}
	// holdFor lets at least n more probes run.
	holdFor := func(n int64) {
		for start := probes.Load(); probes.Load() < start+n; {
			time.Sleep(5 * time.Millisecond)
		}
	}

	holdFor(5)
	g.shut.Store(true)
	ts.CloseClientConnections()
	await(stateDown)
	holdFor(20)
	g.shut.Store(false)
	await(stateHealthy)
	holdFor(10)
	close(stop)
	<-done

	down, healthy := logs.records(t, "instance down"), logs.records(t, "instance healthy")
	if len(down) != 1 || len(healthy) != 1 {
		t.Fatalf("%d probes logged %d \"instance down\" and %d \"instance healthy\" records, want one each", probes.Load(), len(down), len(healthy))
	}
	if down[0]["from"] != "healthy" || healthy[0]["from"] != "down" || down[0]["instance"] != "c0" || down[0]["epoch"] != 1.0 {
		t.Fatalf("records %v then %v, want c0 healthy→down→healthy at epoch 1", down[0], healthy[0])
	}
	if d := logs.records(t, "instance draining"); len(d) != 0 {
		t.Fatalf("logged %v; the instance never drained", d)
	}
}

// TestRemovalExportFailureLogged: a removal whose donor cannot export
// logs one "migration failed" naming the phase it failed in, beside the
// one "instance draining" the removal's first step caused.
func TestRemovalExportFailureLogged(t *testing.T) {
	var logs logBuffer
	rt, err := NewRouter(RouterConfig{Log: slog.New(slog.NewJSONHandler(&logs, nil)),
		Instances: []Instance{{ID: "c0", BaseURL: deadInstance(t)}, {ID: "c1", BaseURL: deadInstance(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.removeInstance(context.Background(), "c0"); err == nil {
		t.Fatal("removal of a donor that cannot export succeeded")
	}
	failed := logs.records(t, "migration failed")
	if len(failed) != 1 {
		t.Fatalf("logged %d \"migration failed\" records, want 1", len(failed))
	}
	want := map[string]any{"kind": "remove", "instance": "c0", "phase": "export", "epoch": 2.0}
	for k, v := range want {
		if failed[0][k] != v {
			t.Fatalf("migration failed record %v: %s = %v, want %v", failed[0], k, failed[0][k], v)
		}
	}
	if !strings.Contains(failed[0]["err"].(string), "export") {
		t.Fatalf("migration failed record %v does not carry the export error", failed[0])
	}
	if d := logs.records(t, "instance draining"); len(d) != 1 || d[0]["kind"] != "removal" {
		t.Fatalf("instance draining records %v, want one of kind removal", d)
	}
}
