//go:build !unix

package results

// lock is a no-op where advisory file locks are unavailable; keeping
// writers off the same store is the operator's responsibility there.
func (st *Store) lock() (func(), error) {
	return func() {}, nil
}
