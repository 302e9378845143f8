package stripe_test

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"stripe"
)

// TestDocsCiteWhatExists keeps ROADMAP aim 1 checkable: a performance
// record a document names is a committed, parseable file, and a
// stripebench invocation it shows uses a flag stripebench has
// (cmd/stripebench's TestFlagSet pins the same four on the real flag
// set; package main cannot be imported from here). It does the same for
// the three surfaces a deletion leaves dangling in prose: a
// configuration field a document names is a field of that struct, a
// method it names on Session, Sender or Receiver is in that type's
// method set (promoted ones included), and an endpoint path it names is
// one Serve answers.
func TestDocsCiteWhatExists(t *testing.T) {
	srv, err := stripe.Serve("127.0.0.1:0", stripe.NewCollector(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	configs := map[string]reflect.Type{
		"Config":        reflect.TypeOf(stripe.Config{}),
		"SessionConfig": reflect.TypeOf(stripe.SessionConfig{}),
		"HealthConfig":  reflect.TypeOf(stripe.HealthConfig{}),
	}
	field := regexp.MustCompile(`\b(Config|SessionConfig|HealthConfig)\.([A-Z]\w*)`)
	owners := map[string]reflect.Type{
		"Session":  reflect.TypeOf((*stripe.Session)(nil)),
		"Sender":   reflect.TypeOf((*stripe.Sender)(nil)),
		"Receiver": reflect.TypeOf((*stripe.Receiver)(nil)),
	}
	method := regexp.MustCompile(`\b(Session|Sender|Receiver)\.([A-Z]\w*)`)
	// Not after a lower-case letter: examples/metrics is a directory.
	endpoint := regexp.MustCompile(`(?:^|[^a-z])(/metrics\b|/debug/[a-z/]+)`)
	served := map[string]bool{} // each path is fetched once across all documents
	record := regexp.MustCompile(`BENCH_\w+\.json`)
	invocation := regexp.MustCompile("stripebench( [^`#\n]*)")
	flagName := regexp.MustCompile(` --?([a-z]+)`)
	flags := map[string]bool{"exp": true, "list": true, "quick": true, "seed": true}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md",
		"doc.go", "examples/metrics/main.go", "cmd/stripedemo/main.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range record.FindAllString(string(text), -1) {
			if raw, err := os.ReadFile(name); err != nil {
				t.Errorf("%s cites %s: %v", doc, name, err)
			} else if !json.Valid(raw) {
				t.Errorf("%s cites %s, which is not valid JSON", doc, name)
			}
		}
		for _, inv := range invocation.FindAllStringSubmatch(string(text), -1) {
			for _, f := range flagName.FindAllStringSubmatch(inv[1], -1) {
				if !flags[f[1]] {
					t.Errorf("%s shows `stripebench%s`: no flag -%s", doc, strings.TrimRight(inv[1], " "), f[1])
				}
			}
		}
		for _, m := range field.FindAllStringSubmatch(string(text), -1) {
			if _, ok := configs[m[1]].FieldByName(m[2]); !ok {
				t.Errorf("%s cites %s: no such field", doc, m[0])
			}
		}
		for _, m := range method.FindAllStringSubmatch(string(text), -1) {
			if _, ok := owners[m[1]].MethodByName(m[2]); !ok {
				t.Errorf("%s cites %s: no such method", doc, m[0])
			}
		}
		for _, m := range endpoint.FindAllStringSubmatch(string(text), -1) {
			path := m[1]
			if served[path] {
				continue
			}
			served[path] = true
			// seconds=1 keeps a cited CPU profile or execution trace short.
			resp, err := http.Get("http://" + srv.Addr() + path + "?seconds=1")
			if err != nil {
				t.Errorf("%s cites %s: %v", doc, path, err)
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s cites %s: Serve answers %s", doc, path, resp.Status)
			}
		}
	}
}
