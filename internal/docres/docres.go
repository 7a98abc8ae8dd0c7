// Package docres is what every layer that reads documents codes against:
// the fn:doc resolver, its form over one pinned store version, and the
// split of an xrpc:// document URL (§5). It imports nothing but the data
// model, so the XRPC client, both query engines and the update package
// share it without importing one another.
package docres

import (
	"strings"

	"xrpc/internal/xdm"
)

// DocResolver resolves fn:doc URIs to document nodes. Implementations
// include store.Snapshot (one pinned version, see VersionedResolver)
// and client-side resolvers that fetch xrpc:// documents (data shipping).
type DocResolver interface {
	Doc(uri string) (*xdm.Node, error)
}

// VersionedResolver is a DocResolver over one pinned store version
// (store.Snapshot): its documents do not change while it is pinned, and
// it carries a value derived from them for as long as the version
// lives. An evaluation over one keeps its steps and indexes there.
type VersionedResolver interface {
	DocResolver
	// Names lists the version's documents.
	Names() []string
	// Derived returns the version's derived value, calling build on
	// the version's first use only; nil once the version dropped it.
	Derived(build func() any) any
}

// SplitXrpcURL splits "xrpc://host[:port]/path" into the peer URI
// ("xrpc://host[:port]") and the local document path. Non-xrpc URLs map
// to ("localhost", url), the defaults given in §5.
func SplitXrpcURL(url string) (host, path string) {
	const scheme = "xrpc://"
	if !strings.HasPrefix(url, scheme) {
		return "localhost", url
	}
	rest := url[len(scheme):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return scheme + rest[:i], rest[i+1:]
	}
	return url, ""
}
