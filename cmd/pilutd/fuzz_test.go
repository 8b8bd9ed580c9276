package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/sparse"
)

// solveStatuses are the answers the solve routes document: success,
// malformed request, unknown matrix, unsolvable request, overload,
// breaker open or draining, deadline exceeded.
var solveStatuses = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
	http.StatusUnprocessableEntity: true, http.StatusTooManyRequests: true,
	http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
}

// FuzzSolveBodies posts each input as the JSON body of /v1/solve and of
// /v1/sequences to one in-process daemon with tinyMatrix registered and
// a 100 ms deadline cap: neither route may panic or answer outside
// solveStatuses, and the daemon must still solve a well-formed request
// afterwards.
func FuzzSolveBodies(f *testing.F) {
	a, err := sparse.ReadMatrixMarket(strings.NewReader(tinyMatrix))
	if err != nil {
		f.Fatal(err)
	}
	svc := service.New(service.Config{Procs: 2, Workers: 1})
	defer svc.Shutdown(context.Background())
	key, _, err := svc.Submit(a)
	if err != nil {
		f.Fatal(err)
	}
	mux := newMux(svc, 100)
	post := func(route, body string) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
		return rec.Code
	}
	good := fmt.Sprintf(`{"key":%q,"keys":[%[1]q],"b":[1,2,3,4]}`, key)

	f.Add(good)
	f.Add(fmt.Sprintf(`{"key":%q,"keys":[%[1]q],"b":[1,2,3,4],"restart":200000}`, key))
	f.Add(fmt.Sprintf(`{"key":%q,"keys":[%[1]q],"b":[1,2,3]}`, key))
	f.Add(`{"key":"deadbeef","keys":["deadbeef"],"b":[1,2,3,4]}`)
	f.Add(fmt.Sprintf(`{"key":%q,"keys":[],"b":[1,2,3,4]}`, key))
	f.Add(fmt.Sprintf(`{"key":%q,"keys":[%[1]q],"b":[1,2,3,4],"timeout_ms":-1}`, key))
	f.Fuzz(func(t *testing.T, body string) {
		for _, route := range []string{"/v1/solve", "/v1/sequences"} {
			if code := post(route, body); !solveStatuses[code] {
				t.Fatalf("%s answered %d to %q", route, code, body)
			}
		}
		if code := post("/v1/solve", good); code != http.StatusOK {
			t.Fatalf("well-formed solve after %q answered %d", body, code)
		}
	})
}
