package main

import (
	"bytes"
	"os"
	"testing"
)

// TestListArticles: -list prints the article catalogue exactly as
// testdata/list.txt records it.
func TestListArticles(t *testing.T) {
	want, err := os.ReadFile("testdata/list.txt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	listArticles(&buf)
	if got := buf.String(); got != string(want) {
		t.Errorf("-list output:\n%s\nwant:\n%s", got, want)
	}
}
