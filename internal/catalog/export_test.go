package catalog

import "paralleltape/internal/model"

// Remembers reports whether gr holds a memo entry for request id.
func Remembers(gr *Grouper, id model.RequestID) bool {
	_, ok := gr.memo[id]
	return ok
}
