package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/matgen"
)

// TestLRU drives the one byte-budget LRU both cache tiers are instances
// of through a script of operations, checking residency (in eviction
// order, next victim first), byte accounting and counters after each.
func TestLRU(t *testing.T) {
	type op struct {
		do    string // "insert", "lookup", "peek", "remove"
		key   string
		bytes int64
		found bool     // lookup/peek: expected result
		order []string // expected keys, least recently used first
		total int64    // expected bytes held
	}
	cases := []struct {
		name                    string
		budget                  int64
		ops                     []op
		hits, misses, evictions int64
	}{
		{name: "fills to the budget, not past it", budget: 100, ops: []op{
			{do: "insert", key: "a", bytes: 40, order: []string{"a"}, total: 40},
			{do: "insert", key: "b", bytes: 60, order: []string{"a", "b"}, total: 100},
			{do: "insert", key: "c", bytes: 1, order: []string{"b", "c"}, total: 61},
		}, evictions: 1},
		{name: "an oversized newcomer lives alone", budget: 100, ops: []op{
			{do: "insert", key: "a", bytes: 30, order: []string{"a"}, total: 30},
			{do: "insert", key: "b", bytes: 30, order: []string{"a", "b"}, total: 60},
			{do: "insert", key: "huge", bytes: 500, order: []string{"huge"}, total: 500},
			{do: "insert", key: "c", bytes: 10, order: []string{"c"}, total: 10},
		}, evictions: 3},
		{name: "re-insert replaces the bytes and is not an eviction", budget: 100, ops: []op{
			{do: "insert", key: "a", bytes: 70, order: []string{"a"}, total: 70},
			{do: "insert", key: "b", bytes: 20, order: []string{"a", "b"}, total: 90},
			{do: "insert", key: "a", bytes: 10, order: []string{"b", "a"}, total: 30},
			{do: "insert", key: "a", bytes: 80, order: []string{"b", "a"}, total: 100},
		}},
		{name: "lookup and peek both promote, only lookup counts", budget: 90, ops: []op{
			{do: "insert", key: "a", bytes: 30, order: []string{"a"}, total: 30},
			{do: "insert", key: "b", bytes: 30, order: []string{"a", "b"}, total: 60},
			{do: "insert", key: "c", bytes: 30, order: []string{"a", "b", "c"}, total: 90},
			{do: "lookup", key: "a", found: true, order: []string{"b", "c", "a"}, total: 90},
			{do: "peek", key: "b", found: true, order: []string{"c", "a", "b"}, total: 90},
			{do: "lookup", key: "zz", found: false, order: []string{"c", "a", "b"}, total: 90},
			{do: "peek", key: "zz", found: false, order: []string{"c", "a", "b"}, total: 90},
			{do: "insert", key: "d", bytes: 30, order: []string{"a", "b", "d"}, total: 90},
			{do: "lookup", key: "c", found: false, order: []string{"a", "b", "d"}, total: 90},
		}, hits: 1, misses: 2, evictions: 1},
		{name: "remove frees bytes without counting an eviction", budget: 50, ops: []op{
			{do: "insert", key: "a", bytes: 25, order: []string{"a"}, total: 25},
			{do: "insert", key: "b", bytes: 25, order: []string{"a", "b"}, total: 50},
			{do: "remove", key: "a", order: []string{"b"}, total: 25},
			{do: "remove", key: "a", order: []string{"b"}, total: 25},
			{do: "insert", key: "c", bytes: 25, order: []string{"b", "c"}, total: 50},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newLRU[string](tc.budget)
			for i, o := range tc.ops {
				switch o.do {
				case "insert":
					c.insert(o.key, "v:"+o.key, o.bytes)
				case "remove":
					c.remove(o.key)
				case "lookup", "peek":
					get := c.lookup
					if o.do == "peek" {
						get = c.peek
					}
					if v, ok := get(o.key); ok != o.found || (ok && v != "v:"+o.key) {
						t.Fatalf("op %d: %s(%s) = %q, %v; want found=%v", i, o.do, o.key, v, ok, o.found)
					}
				}
				var order []string
				for e := c.order.Back(); e != nil; e = e.Prev() {
					order = append(order, e.Value.(*lruItem[string]).key)
				}
				if !reflect.DeepEqual(order, o.order) || len(c.items) != len(o.order) {
					t.Fatalf("op %d (%s %s): resident %v (%d indexed), want %v", i, o.do, o.key, order, len(c.items), o.order)
				}
				if c.bytes != o.total {
					t.Fatalf("op %d (%s %s): %d bytes held, want %d", i, o.do, o.key, c.bytes, o.total)
				}
			}
			if c.hits != tc.hits || c.misses != tc.misses || c.evictions != tc.evictions {
				t.Errorf("hits/misses/evictions = %d/%d/%d, want %d/%d/%d",
					c.hits, c.misses, c.evictions, tc.hits, tc.misses, tc.evictions)
			}
		})
	}
}

// TestSymbolicTierEvicts reaches the symbolic tier's eviction through a
// server: with the tier's budget cut to one analysis, a second pattern
// evicts the first (the newcomer stays), and rebuilding the first
// pattern is a symbolic miss again — while the factor cache, a separate
// instance, keeps both entries.
func TestSymbolicTierEvicts(t *testing.T) {
	s := New(testConfig())
	defer s.Shutdown(context.Background())
	s.symbolic.budget = 1
	solve := func(nx int) {
		t.Helper()
		a := matgen.Grid2D(nx, nx)
		key, _, err := s.Submit(a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		// Drop the factorization so the next solve of this pattern builds.
		s.mu.Lock()
		s.cache.remove(key)
		s.mu.Unlock()
	}
	solve(10)
	solve(11)
	st := s.StatsSnapshot().Cache
	if st.SymbolicEntries != 1 || s.symbolic.evictions != 1 || st.SymbolicMisses != 2 {
		t.Fatalf("after two patterns under a one-analysis budget: %+v (%d evictions), want 1 entry, 1 eviction, 2 misses", st, s.symbolic.evictions)
	}
	solve(11)
	solve(10)
	st = s.StatsSnapshot().Cache
	if st.SymbolicHits != 1 || st.SymbolicMisses != 3 || st.RefactorBuilds != 1 || s.symbolic.evictions != 2 {
		t.Fatalf("resident pattern then evicted pattern: %+v (%d evictions), want 1 hit, 3 misses, 1 refactor build, 2 evictions", st, s.symbolic.evictions)
	}
	if st.SymbolicBytes <= 0 || st.Evictions != 0 {
		t.Errorf("symbolic tier holds %d bytes; factor cache evicted %d, want > 0 and 0", st.SymbolicBytes, st.Evictions)
	}
}

// TestClusterCall pins the one peer HTTP operation: what it sends (the
// method, path, body and cluster token), what it bounds (the op timeout,
// the bytes of answer it keeps), and what the factor wrapper makes of the
// statuses it passes up.
func TestClusterCall(t *testing.T) {
	release := make(chan struct{})
	type seen struct{ method, path, token, body string }
	var mu sync.Mutex
	var last seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		last = seen{r.Method, r.URL.RequestURI(), r.Header.Get(ClusterTokenHeader), string(body)}
		mu.Unlock()
		switch {
		case strings.HasPrefix(r.URL.Path, "/slow"):
			<-release
		case strings.HasPrefix(r.URL.Path, "/big"):
			io.WriteString(w, strings.Repeat("x", 4096))
		case strings.HasSuffix(r.URL.Path, "/missing"):
			w.WriteHeader(http.StatusNotFound)
		case strings.HasSuffix(r.URL.Path, "/forbidden"):
			w.WriteHeader(http.StatusForbidden)
			io.WriteString(w, "no")
		default:
			io.WriteString(w, "answer")
		}
	}))
	defer ts.Close()
	defer close(release)
	cl := newCluster(&ClusterConfig{
		Self: "http://self.invalid", Peers: []string{"http://self.invalid", ts.URL},
		OpTimeout: 200 * time.Millisecond, Token: "s3cret",
	}, 3, time.Minute)

	sawLast := func() seen {
		mu.Lock()
		defer mu.Unlock()
		return last
	}

	status, data, err := cl.call(http.MethodPost, ts.URL, "/v1/x?y=1", []byte("payload"), 1<<10)
	if err != nil || status != http.StatusOK || string(data) != "answer" {
		t.Fatalf("call = %d, %q, %v", status, data, err)
	}
	if got := sawLast(); got != (seen{http.MethodPost, "/v1/x?y=1", "s3cret", "payload"}) {
		t.Errorf("peer saw %+v, want the POST with its query, body and the cluster token", got)
	}
	if status, data, err = cl.call(http.MethodGet, ts.URL, "/big", nil, 100); err != nil || status != http.StatusOK || len(data) != 100 {
		t.Errorf("limited call = %d, %d bytes, %v; want 100 bytes of the 4096", status, len(data), err)
	}
	if got := sawLast(); got.method != http.MethodGet || got.body != "" {
		t.Errorf("bodiless call sent %+v", got)
	}
	if status, data, err = cl.call(http.MethodGet, ts.URL, "/x/forbidden", nil, 10); err != nil || status != http.StatusForbidden || string(data) != "no" {
		t.Errorf("non-200 call = %d, %q, %v; want the status and body passed up", status, data, err)
	}
	start := time.Now()
	if _, _, err = cl.call(http.MethodGet, ts.URL, "/slow", nil, 10); err == nil {
		t.Error("a call to a hung peer returned without error")
	} else if d := time.Since(start); d > 5*time.Second {
		t.Errorf("op timeout of 200ms took %v to fire", d)
	}
	if _, _, err = cl.call(http.MethodGet, "http://127.0.0.1:1", "/x", nil, 10); err == nil {
		t.Error("a call to a closed port returned without error")
	}

	// The factor wrapper: 200 → bytes, 404 → the clean miss, anything
	// else → a *peerStatusError carrying the code for the retry split.
	if data, err := cl.getFactor(ts.URL, "k"); err != nil || string(data) != "answer" || sawLast().path != "/v1/peer/factor/k" {
		t.Errorf("getFactor = %q, %v via %s", data, err, sawLast().path)
	}
	if _, err := cl.getFactor(ts.URL, "missing"); !errors.Is(err, errPeerMiss) {
		t.Errorf("getFactor on 404: %v, want errPeerMiss", err)
	}
	var se *peerStatusError
	if _, err := cl.getFactor(ts.URL, "forbidden"); !errors.As(err, &se) || se.code != http.StatusForbidden || se.peer != ts.URL {
		t.Errorf("getFactor on 403: %v, want a *peerStatusError with the code", err)
	}
	if err := cl.putMatrix(ts.URL+"/x/forbidden?", nil); !errors.As(err, &se) || se.code != http.StatusForbidden {
		t.Errorf("putMatrix on 403: %v, want a *peerStatusError", err)
	}
}
