package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcore"
)

// discardWriter is an http.ResponseWriter that counts a reply's bytes
// and keeps none of them, so a benchmark prices the server's work, not
// a recorder's growing copy of the reply.
type discardWriter struct {
	header http.Header
	code   int
	bytes  int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.bytes += len(p)
	return len(p), nil
}

// BenchmarkReply measures whole requests through Handler() on SNB-2000
// with a dense pid stamped on every Person — request decode, session
// lookup, evaluation and the reply encoding, written to a discarding
// writer. The first three are the path_analytics shapes from one
// source: path is one stored shortest walk to every Person reachable
// (a reply of a few hundred KB), reach the reachable Persons' pids as
// a sorted table, shortest3 three stored shortest walks, with their
// cost, to each reachable Person of one last name. point is a prepared
// 1-hop lookup executed through /exec (the point_prepared shape).
func BenchmarkReply(b *testing.B) {
	eng := gcore.NewEngine()
	social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 2000, Seed: 1})
	for pid, id := range social.NodesWithLabel("Person") {
		n, _ := social.Node(id)
		p := n.Props.Clone()
		p.Set("pid", gcore.Int(int64(pid)))
		if err := social.SetNodeProps(id, p); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.RegisterGraph(social); err != nil {
		b.Fatal(err)
	}
	srv := New(eng, Config{})
	defer srv.Close()
	h := srv.Handler()
	post := func(b *testing.B, path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	run := func(b *testing.B, path, body string) {
		post(b, path, body) // warm the plan cache and the snapshot
		w := &discardWriter{header: http.Header{}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(w.header)
			w.code, w.bytes = 0, 0
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if w.code != http.StatusOK || w.bytes == 0 {
				b.Fatalf("%s: status %d, %d bytes", path, w.code, w.bytes)
			}
		}
	}

	b.Run("path", func(b *testing.B) {
		run(b, "/query", `{"query": "CONSTRUCT (n)-/@p:sp/->(m) MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.pid = 42"}`)
	})
	b.Run("reach", func(b *testing.B) {
		run(b, "/query", `{"query": "SELECT m.pid AS pid MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.pid = 42 ORDER BY pid"}`)
	})
	b.Run("shortest3", func(b *testing.B) {
		run(b, "/query", `{"query": "CONSTRUCT (n)-/@p:sp {distance := c}/->(m) MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.pid = 42 AND m.lastName = 'Smith'"}`)
	})
	b.Run("point", func(b *testing.B) {
		var sess struct{ Session string }
		if err := json.Unmarshal(post(b, "/session", `{"graph": "`+social.Name()+`"}`), &sess); err != nil {
			b.Fatal(err)
		}
		var prep struct{ Handle string }
		if err := json.Unmarshal(post(b, "/prepare", `{"session": "`+sess.Session+
			`", "query": "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.pid = $pid"}`), &prep); err != nil {
			b.Fatal(err)
		}
		run(b, "/exec", `{"session": "`+sess.Session+`", "handle": "`+prep.Handle+`", "params": {"pid": 1234}}`)
	})
}
