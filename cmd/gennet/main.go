// Command gennet emits the synthetic test articles as structural Verilog
// netlists, so they can be inspected, archived, or fed back into revan.
//
// Usage:
//
//	gennet -article mips16 -o mips16.v
//	gennet -all -dir ./netlists
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"netlistre"
)

func main() {
	var (
		article = flag.String("article", "", "article to emit (see -list)")
		out     = flag.String("o", "", "output file (default stdout)")
		all     = flag.Bool("all", false, "emit every article")
		dir     = flag.String("dir", ".", "output directory for -all")
		format  = flag.String("format", "verilog", "output format: verilog or blif")
		list    = flag.Bool("list", false, "list available articles and exit")
		lutmap  = flag.Bool("lutmap", false, "LUT-map the article before emitting (FPGA-style k-input cells)")
	)
	flag.Parse()
	if *list {
		listArticles(os.Stdout)
		return
	}
	if *format != "verilog" && *format != "blif" {
		fmt.Fprintln(os.Stderr, "gennet: -format must be verilog or blif")
		os.Exit(1)
	}

	if *all {
		ext := ".v"
		if *format == "blif" {
			ext = ".blif"
		}
		if *lutmap {
			ext = "-lut" + ext
		}
		for _, a := range netlistre.Articles() {
			path := filepath.Join(*dir, a.Name+ext)
			nl, err := netlistre.TestArticle(a.Name)
			if err == nil {
				err = emit(nl, path, *format, *lutmap)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "gennet:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", path)
		}
		return
	}
	if *article == "" {
		fmt.Fprintln(os.Stderr, "gennet: -article or -all required")
		os.Exit(1)
	}
	nl, err := netlistre.TestArticle(*article)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gennet: unknown article %q; available articles:\n", *article)
		listArticles(os.Stderr)
		os.Exit(1)
	}
	if err := emit(nl, *out, *format, *lutmap); err != nil {
		fmt.Fprintln(os.Stderr, "gennet:", err)
		os.Exit(1)
	}
}

// listArticles prints the article catalogue, one name and description a
// line.
func listArticles(w io.Writer) {
	for _, a := range netlistre.Articles() {
		fmt.Fprintf(w, "%-14s  %s\n", a.Name, a.Description)
	}
}

// emit writes nl to path (stdout when empty) in format, LUT-mapped first
// when lutmap is set.
func emit(nl *netlistre.Netlist, path, format string, lutmap bool) error {
	if lutmap {
		nl = netlistre.LutMap(nl)
	}
	w := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if format == "blif" {
		return nl.WriteBLIF(w)
	}
	return nl.WriteVerilog(w)
}
