package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEnginePackagesExist keeps the detrand scope current: every
// enginePackages entry must name an existing internal/<name> directory, so
// a deleted package cannot linger in the list.
func TestEnginePackagesExist(t *testing.T) {
	for _, name := range enginePackages {
		if fi, err := os.Stat(filepath.Join("..", name)); err != nil || !fi.IsDir() {
			t.Errorf("enginePackages lists %q, but internal/%s is not a directory", name, name)
		}
	}
}
