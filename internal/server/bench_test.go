package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcore"
)

// BenchmarkReply measures whole requests through Handler() on SNB-2000
// with a dense pid stamped on every Person — request decode, session
// lookup, evaluation and the reply encoding: path is one stored
// shortest walk to every Person reachable from one source (a reply of
// a few hundred KB, the path_analytics shape), point a prepared 1-hop
// lookup executed through /exec (the point_prepared shape).
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
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, path, body)
		}
	}

	b.Run("path", func(b *testing.B) {
		run(b, "/query", `{"query": "CONSTRUCT (n)-/@p:sp/->(m) MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.pid = 42"}`)
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
