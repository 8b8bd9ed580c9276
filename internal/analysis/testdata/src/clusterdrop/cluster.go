package clusterdrop

// The strict cluster boundary is per FILE, not per package: this sibling
// drops the same stdlib errors membership.go is flagged for, and stays
// clean because it is none of membership.go, replication.go, routes.go — the
// ordinary comm/service boundary applies here and says nothing about
// net/http or encoding errors.

import (
	"encoding/json"
	"io"
	"net/http"
)

func unflaggedProbe(c *http.Client, url string) {
	c.Get(url) // same drop as membership.go's badProbe; not on a strict file

	resp, _ := c.Get(url)
	if resp != nil {
		resp.Body.Close()
	}
}

func unflaggedPush(w io.Writer, v view) {
	json.NewEncoder(w).Encode(v)
	io.WriteString(w, "\n")
}
