// Package clusterdrop exercises the errdrop analyzer's per-file cluster
// boundary: inside membership.go, replication.go and routes.go of the service
// package (or a package named clusterdrop, like this golden one),
// dropped errors from the stdlib layers the gossip view exchange and
// replica pushes are built on (net, net/http, io, bufio, encoding/json)
// fail lint — a dropped probe or push error is a silently
// lost liveness verdict or a factor stranded without its redundancy.
// Close is excepted: teardown paths drop Close errors deliberately.
package clusterdrop

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
)

type view struct {
	Epoch uint64
}

func badProbe(c *http.Client, url string) {
	c.Get(url) // want `error result of http.Client.Get discarded .call used as a statement.`

	resp, _ := c.Get(url) // want `error result of http.Client.Get assigned to _`
	if resp != nil {
		defer resp.Body.Close() // Close is excepted on teardown paths.
	}
}

func badPush(w io.Writer, v view) {
	var buf bytes.Buffer
	json.NewEncoder(w).Encode(v) // want `error result of json.Encoder.Encode discarded .call used as a statement.`

	go io.Copy(io.Discard, &buf) // want `error result of io.Copy discarded .go statement.`
}

func goodProbe(c *http.Client, url string) (view, error) {
	resp, err := c.Get(url)
	if err != nil {
		return view{}, err
	}
	defer resp.Body.Close()
	var v view
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return view{}, err
	}
	return v, nil
}

func waivedPush(w io.Writer, v view) {
	json.NewEncoder(w).Encode(v) //pilutlint:ok errdrop best-effort hint to a draining peer
}
