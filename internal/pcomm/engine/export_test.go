package engine

// MailboxCap exposes the fast-path depth to the external tests, which
// must outrun it to exercise the spill path.
const MailboxCap = mailboxCap
