package main

import (
	"bytes"
	"os"
	"testing"
)

// TestListArticles: the list printed on -list (and on an unknown -article)
// is the article catalogue exactly as testdata/list.txt records it.
func TestListArticles(t *testing.T) {
	want, err := os.ReadFile("testdata/list.txt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	listArticles(&buf)
	if got := buf.String(); got != string(want) {
		t.Errorf("article list:\n%s\nwant:\n%s", got, want)
	}
}
