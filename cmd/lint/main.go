// Command lint runs the repository's determinism lint suite
// (internal/lint): detrand, maporder, interrupt, hotpath, and speclock —
// the analyzers that mechanically enforce the byte-identity, cancellation,
// 0-alloc, and schema-lock invariants the results rest on.
//
// It runs as a unit checker under go vet:
//
//	go build -o lintbin ./cmd/lint
//	go vet -vettool=$(pwd)/lintbin ./...
//
// It implements the go vet unit-checker protocol (the same .cfg contract
// golang.org/x/tools/go/analysis/unitchecker speaks): go vet invokes the
// tool once per package with a JSON config naming the sources and the
// export data of every dependency. `lint help` prints the suite; `lint help
// <analyzer>` prints one analyzer's contract. Any other invocation prints
// the usage line and exits 2.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"lvmajority/internal/lint"
	"lvmajority/internal/lint/loader"
)

func main() {
	args := os.Args[1:]
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		// go vet probes the tool for the analyzer flags it accepts; the
		// suite exposes none.
		fmt.Println("[]")
		return
	}
	if len(args) > 0 && args[0] == "help" {
		printHelp(args[1:])
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0]))
	}
	fmt.Fprintln(os.Stderr, usage)
	os.Exit(2)
}

const usage = "usage: go vet -vettool=lint [packages]   (or: lint help [analyzer])"

// printVersion implements the -V=full handshake go vet uses to fingerprint
// a vettool for its action cache: name, version, and a content hash of the
// binary itself.
func printVersion() {
	name := filepath.Base(os.Args[0])
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	h := sha256.Sum256(data)
	fmt.Printf("%s version devel buildID=%x\n", name, h[:16])
}

func printHelp(args []string) {
	if len(args) == 0 {
		fmt.Println("lint: the determinism lint suite for this repository")
		fmt.Println()
		fmt.Println(usage)
		fmt.Println()
		for _, a := range lint.Suite() {
			fmt.Printf("  %-10s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		fmt.Println()
		fmt.Println("suppress one finding with: //lint:ignore <analyzer> <reason>")
		return
	}
	for _, a := range lint.Suite() {
		if a.Name == args[0] {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "lint: unknown analyzer %q\n", args[0])
	os.Exit(2)
}

// vetConfig is the JSON configuration go vet hands a unit checker; the
// field set mirrors golang.org/x/tools/go/analysis/unitchecker.Config.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standalone                bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one package under the go vet protocol: parse the
// listed sources, type-check against the provided export data, run the
// suite, and record the (empty) fact set at VetxOutput so go vet can cache
// the action.
func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "lint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite passes no facts between packages, but go vet requires the
	// output file to exist to cache the action.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "lint:", err)
				os.Exit(1)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lint:", err)
			return 1
		}
		files = append(files, f)
	}
	info := loader.NewInfo()
	tconf := &types.Config{
		Importer:  loader.ExportImporter(fset, cfg.ImportMap, cfg.PackageFile),
		Sizes:     types.SizesFor(cfg.Compiler, runtime.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	if tconf.Sizes == nil {
		tconf.Sizes = types.SizesFor("gc", runtime.GOARCH)
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "lint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags, err := lint.RunPackage(fset, files, pkg, info, lint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		return 1
	}
	writeVetx()
	if len(diags) == 0 {
		return 0
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].String() < diags[j].String() })
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	return 2
}
