package medmaker

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestAPISurface exercises the small public helpers end to end.
func TestAPISurface(t *testing.T) {
	if opts := DefaultPlanOptions(); !opts.PushConditions || !opts.Parameterize || !opts.DupElim {
		t.Fatalf("DefaultPlanOptions = %+v", opts)
	}
	rule, err := TranslateLorel(`select X from med.person X where X.dept = "CS"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rule.String(), "<dept 'CS'>") {
		t.Fatalf("TranslateLorel: %s", rule)
	}

	src, err := NewOEMSourceFromText("people", `<person, set, {<name, 'A'>}>`)
	if err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{
		Name:    "med",
		Spec:    `<v {<name N>}> :- <person {<name N>}>@people.`,
		Sources: []Source{src},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := med.Sources(); !reflect.DeepEqual(got, []string{"people"}) {
		t.Fatalf("Sources = %v", got)
	}
	if med.Spec() == nil || len(med.Spec().Rules) != 1 {
		t.Fatal("Spec accessor")
	}
	caps := med.Capabilities()
	if !caps.ValueConditions || caps.Wildcards {
		t.Fatalf("mediator capabilities: %+v", caps)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "p.oem")
	if err := os.WriteFile(path, []byte(`<person, set, {<name, 'B'>}>`), 0o600); err != nil {
		t.Fatal(err)
	}
	fileSrc, err := NewOEMSourceFromFile("file_people", path)
	if err != nil {
		t.Fatal(err)
	}
	if fileSrc.Len() != 1 {
		t.Fatal("NewOEMSourceFromFile")
	}
}

// TestAddSourceReplacement swaps a source at runtime; the unchanged
// specification keeps working against the replacement.
func TestAddSourceReplacement(t *testing.T) {
	v1, err := NewOEMSourceFromText("people", `<person, set, {<name, 'Old Timer'>, <dept, 'CS'>}>`)
	if err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{
		Name:    "med",
		Spec:    `<staff {<name N>}> :- <person {<name N> <dept 'CS'>}>@people.`,
		Sources: []Source{v1},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := med.QueryString(`X :- X:<staff {<name N>}>@med.`)
	if err != nil || len(first) != 1 {
		t.Fatalf("before swap: %v, %d objects", err, len(first))
	}
	// The source moves behind TCP with new contents; same name, same spec.
	v2, err := NewOEMSourceFromText("people", `
	    <person, set, {<name, 'New Hire'>, <dept, 'CS'>}>
	    <person, set, {<name, 'Also New'>, <dept, 'CS'>}>`)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv, err := Serve(v2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := DialSource(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	med.AddSource(remote)
	after, err := med.QueryString(`X :- X:<staff {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 {
		t.Fatalf("after swap: %d objects", len(after))
	}
}

// TestServeAndDialMediator covers the public remote helpers by serving a
// whole mediator and querying it over TCP.
func TestServeAndDialMediator(t *testing.T) {
	med := newMed(t, nil)
	addr, srv, err := Serve(med, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialSource(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Name() != "med" {
		t.Fatalf("remote mediator name %q", client.Name())
	}
	q, err := ParseQuery(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].StructuralEqual(figure24) {
		t.Fatalf("remote mediator answer:\n%s", FormatOEM(got...))
	}
}

// TestExplainCoversAllNodeKinds prints a plan containing every operator
// kind, exercising the Label/Detail/OutVars methods.
func TestExplainCoversAllNodeKinds(t *testing.T) {
	cs, whois := newPaperSources(t)
	// Two skolem rules force union + fuse; the join baseline forces a
	// hash-join node.
	opts := PlanOptions{PushConditions: true, Parameterize: false, DupElim: true}
	med, err := New(Config{
		Name: "med",
		Spec: `
		<person(N) anyone {<name N>}> :- <person {<name N> <relation R>}>@whois AND <R {<first_name F>}>@cs.
		<person(N) anyone {<name N>}> :- <person {<name N>}>@whois.`,
		Sources: []Source{cs, whois},
		Plan:    &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := med.Explain(`X :- X:<anyone {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"union", "fuse", "hash-join", "dedup", "construct", "query(whois)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// And it runs.
	got, err := med.QueryString(`X :- X:<anyone {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("anyone view: %d objects", len(got))
	}
}
