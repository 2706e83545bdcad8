package sim

// The kernel's tests write their continuations as plain callbacks; these
// two adapters give them the typed forms the engine and resources take. A
// func value is pointer-shaped, so converting one to an interface
// allocates nothing.

// opFunc adapts a callback to Op; the tag is ignored.
type opFunc func()

// Run implements Op by calling the wrapped callback.
func (f opFunc) Run(uint8) { f() }

// granteeFunc adapts a grant callback to Grantee.
type granteeFunc func(g *Grant)

// Granted implements Grantee by calling the wrapped callback.
func (f granteeFunc) Granted(g *Grant) { f(g) }
