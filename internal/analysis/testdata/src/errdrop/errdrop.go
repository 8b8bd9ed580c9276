// Package errdrop exercises the errdrop analyzer: errors returned
// across the comm/service boundary (pcomm.Guard above all) carry the
// failure diagnosis and must not be dropped, and neither may the wire
// codec's: a dropped Encode error sends a body truncated, a dropped End
// error accepts a malformed one.
package errdrop

import (
	"repro/internal/codec"
	"repro/internal/pcomm"
)

func bad(w pcomm.World, f func(pcomm.Comm)) {
	pcomm.Guard(w, f) // want `error result of pcomm.Guard discarded .call used as a statement.`

	_, _ = pcomm.Guard(w, f) // want `error result of pcomm.Guard assigned to _`

	res, _ := pcomm.Guard(w, f) // want `error result of pcomm.Guard assigned to _`
	_ = res

	defer pcomm.Guard(w, f) // want `error result of pcomm.Guard discarded .deferred call.`
}

func good(w pcomm.World, f func(pcomm.Comm)) error {
	res, err := pcomm.Guard(w, f)
	if err != nil {
		return err
	}
	_ = res.Elapsed
	return nil
}

func waived(w pcomm.World, f func(pcomm.Comm)) {
	_, _ = pcomm.Guard(w, f) //pilutlint:ok errdrop best-effort warmup, failure is retried cold
}

func badCodec(body []byte) {
	var s string
	layout := func(c *codec.Coder) { c.Str(&s) }

	codec.Encode(layout) // want `error result of codec.Encode discarded .call used as a statement.`

	out, _ := codec.Encode(layout) // want `error result of codec.Encode assigned to _`
	_ = out

	c := codec.NewDecoder("errdrop: body", body)
	layout(c)
	c.End() // want `error result of codec.Coder.End discarded .call used as a statement.`

	_ = c.End() // want `error result of codec.Coder.End assigned to _`
}

func goodCodec(body []byte) ([]byte, error) {
	var s string
	layout := func(c *codec.Coder) { c.Str(&s) }
	if err := codec.Decode("errdrop: body", body, layout); err != nil {
		return nil, err
	}
	return codec.Encode(layout)
}
