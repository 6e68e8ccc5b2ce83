package cluster

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestProductionConfiguration pins the one configuration production runs —
// the zero configs that privaserve -cluster and the benchmark pass —
// to the numbers the ingest workloads measure: frames of at most 512 events,
// a window of four frames, 16 attempts a sequence, backoff from
// 5 ms to 2 s over h2c; probes every 250 ms with a 250 ms timeout, three
// misses to an eviction.
func TestProductionConfiguration(t *testing.T) {
	c, err := StartLocal(surgeryModel(t), 2, NodeConfig{}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())

	got := c.Router.tuning
	if tr, ok := got.client.Transport.(*http.Transport); !ok || tr.Protocols == nil || !tr.Protocols.UnencryptedHTTP2() {
		t.Errorf("router transport = %#v, want unencrypted HTTP/2", got.client.Transport)
	}
	got.client = nil
	want := routerTuning{batchEvents: 512, maxInFlight: 4,
		maxRetries: 16, backoffBase: 5 * time.Millisecond, backoffMax: 2 * time.Second, jitterSeed: 1}
	if got != want {
		t.Errorf("router tuning = %+v, want %+v", got, want)
	}
	c.Router.inspect(func(st *routerState) {
		if st.batch != 512 || st.window != 4 || st.maxRetries != 16 {
			t.Errorf("router state batch %d, window %d, attempts %d; want 512, 4, 16", st.batch, st.window, st.maxRetries)
		}
	})

	prober := c.StartProber(ProberConfig{})
	defer prober.Stop()
	if got, want := prober.cfg.tuning, (proberTuning{interval: 250 * time.Millisecond, timeout: 250 * time.Millisecond, failures: 3}); got != want {
		t.Errorf("prober tuning = %+v, want %+v", got, want)
	}
}
