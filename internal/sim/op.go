package sim

// Typed continuation dispatch. The event queue stores an Op plus a one-byte
// stage tag instead of a bare func(): long-lived continuation records (the
// simulator's pooled serve and switch ops, resource grant dispatch, latch
// opens, fault-retry and repair wakeups) implement Op once, select their
// stage with a dense tag switch, and schedule themselves with ScheduleOp —
// no closure is captured and dispatch is one interface call into the
// record's jump table.

// Op is a schedulable continuation record. The engine invokes Run with the
// tag the event was scheduled under; a record with several stages
// dispatches on the tag (a dense switch compiles to a jump table), a
// single-stage record ignores it.
type Op interface {
	// Run executes the continuation stage selected by tag. It is called by
	// the engine with the clock already advanced to the event's time.
	Run(tag uint8)
}
