package core

import (
	"repro/internal/ilu"
	"repro/internal/pcomm"
)

// Every payload type this package puts through Send or AllGather must be
// registered with the wire codec so the multi-process netcomm backend
// can serialize it; the in-process backends pass these by reference and
// never notice.
func init() {
	pcomm.RegisterWire(ilu.URow{})
	pcomm.RegisterWire([]ilu.URow(nil))
}
