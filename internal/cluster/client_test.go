package cluster

import (
	"strings"
	"testing"
)

// TestNewClientFailsClosed: a malformed node list is refused before
// anything is sent, and a good one becomes a ring of exactly its distinct
// addresses, trailing slashes trimmed.
func TestNewClientFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name string
		urls []string
		want string // error substring; "" = accepted
	}{
		{"one address", []string{"http://a:1"}, ""},
		{"several, https and a path", []string{"http://a:1/", "https://b:2", "http://c:3/rc"}, ""},
		{"empty list", nil, "no node addresses"},
		{"empty element", []string{"http://a:1", "", "http://b:2"}, "empty address"},
		{"only a slash", []string{"/"}, "empty address"},
		{"no scheme", []string{"a:1"}, "scheme must be http or https"},
		{"other scheme", []string{"ftp://a:1"}, "scheme must be http or https"},
		{"no host", []string{"http://"}, "has no host"},
		{"unparseable", []string{"http://a b:1"}, `"http://a b:1"`},
		{"duplicate", []string{"http://a:1", "http://b:2", "http://a:1"}, "listed twice"},
		{"duplicate after trimming /", []string{"http://a:1", "http://a:1/"}, "listed twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewClient(tc.urls, nil)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("NewClient(%q) = %v, want an error containing %q", tc.urls, err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewClient(%q): %v", tc.urls, err)
			}
			if c.ring.Len() != len(tc.urls) {
				t.Fatalf("ring has %d nodes, want %d", c.ring.Len(), len(tc.urls))
			}
			for _, n := range c.ring.Successors("k", len(tc.urls)) {
				if strings.HasSuffix(n, "/") {
					t.Fatalf("node %q keeps its trailing slash", n)
				}
			}
		})
	}
}
