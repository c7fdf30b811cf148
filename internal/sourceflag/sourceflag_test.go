package sourceflag

import "testing"

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"dir/file.csv": "file",
		"file.json":    "file",
		"noext":        "noext",
		"a/b/c.tar.gz": "c.tar",
		".hidden":      ".hidden",
		"dir.v2/data":  "data",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}
