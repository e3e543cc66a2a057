// Command reachfixture is the module the reachability guard's own test
// loads: Store.Drop is called only by the wrapper that forwards it, so it
// and both its implementations are unreachable, while Store.Get, which
// main calls through the interface, keeps both of its implementations.
package main

type Store interface {
	Get(key string) string
	Drop(key string)
}

type mem map[string]string

func (m mem) Get(key string) string { return m[key] }
func (m mem) Drop(key string)       { delete(m, key) }

// counted forwards to an inner Store, counting calls.
type counted struct {
	inner Store
	calls int
}

func (c *counted) Get(key string) string { c.calls++; return c.inner.Get(key) }
func (c *counted) Drop(key string)       { c.calls++; c.inner.Drop(key) }

func main() {
	var s Store = &counted{inner: mem{"k": "v"}}
	println(s.Get("k"))
}
