package engine

// MailboxCap exposes the fast-path depth to the external tests, which
// must outrun it to exercise the spill path.
const MailboxCap = mailboxCap

// SetPick makes w's driver resume pick(runnable), one of the runnable
// ranks in ascending order, instead of the one with the least clock.
func SetPick(w *World, pick func(runnable []int) int) { w.pick = pick }
