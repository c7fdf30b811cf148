package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestdata lays out the paper's running example in a temp dir.
func writeTestdata(t *testing.T) (spec, whois, cs string) {
	t.Helper()
	dir := t.TempDir()
	spec = filepath.Join(dir, "med.msl")
	whois = filepath.Join(dir, "whois.oem")
	cs = filepath.Join(dir, "cs.oem")
	files := map[string]string{
		spec: `
<cs_person {<name N> <relation R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN).
decomp(bound, free, free) by name_to_lnfn.
decomp(free, bound, bound) by lnfn_to_name.`,
		whois: `
<person, set, {<name, 'Joe Chung'>, <dept, 'CS'>, <relation, 'employee'>, <e_mail, 'chung@cs'>}>
<person, set, {<name, 'Nick Naive'>, <dept, 'CS'>, <relation, 'student'>, <year, 3>}>`,
		cs: `
<employee, set, {<first_name, 'Joe'>, <last_name, 'Chung'>, <title, 'professor'>}>
<student, set, {<first_name, 'Nick'>, <last_name, 'Naive'>, <year, 3>}>`,
	}
	for path, content := range files {
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return spec, whois, cs
}

func runCLI(t *testing.T, stdin string, args ...string) (string, string, error) {
	t.Helper()
	var out, errb strings.Builder
	err := run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), err
}

func TestCLIQueryArgument(t *testing.T) {
	spec, whois, cs := writeTestdata(t)
	out, _, err := runCLI(t, "",
		"-spec", spec, "-source", "whois="+whois, "-source", "cs="+cs,
		`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cs_person", "'Joe Chung'", "'professor'", "'chung@cs'"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIStdinAndStats(t *testing.T) {
	spec, whois, cs := writeTestdata(t)
	stdin := `
# a comment, then two queries
P :- P:<cs_person {<name N>}>@med.
garbage that fails to parse
`
	out, errOut, err := runCLI(t, stdin,
		"-spec", spec, "-source", "whois="+whois, "-source", "cs="+cs, "-stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "'Nick Naive'") {
		t.Errorf("stdin query lost:\n%s", out)
	}
	if !strings.Contains(errOut, "medmaker:") {
		t.Errorf("bad line not reported:\n%s", errOut)
	}
	if !strings.Contains(errOut, "statistics learned") {
		t.Errorf("-stats output missing:\n%s", errOut)
	}
}

func TestCLILorelAndExplain(t *testing.T) {
	spec, whois, cs := writeTestdata(t)
	out, errOut, err := runCLI(t, "",
		"-spec", spec, "-source", "whois="+whois, "-source", "cs="+cs,
		"-lorel", "-explain",
		`select X from med.cs_person X where X.name = "Joe Chung"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "'Joe Chung'") {
		t.Errorf("LOREL answer missing:\n%s", out)
	}
	if !strings.Contains(errOut, "-- MSL:") || !strings.Contains(errOut, "physical datamerge graph") {
		t.Errorf("explain/lorel diagnostics missing:\n%s", errOut)
	}
}

// TestCLIExplainNegatedViewCondition: -explain prints a plan for every
// query the mediator answers, including one negating a view condition,
// which runs over the materialized view.
func TestCLIExplainNegatedViewCondition(t *testing.T) {
	spec, whois, cs := writeTestdata(t)
	_, errOut, err := runCLI(t, "",
		"-spec", spec, "-source", "whois="+whois, "-source", "cs="+cs, "-explain",
		`P :- P:<person {<name N>}>@whois AND NOT <cs_person {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "-- note:") || !strings.Contains(errOut, "matscan(_fusedview)") {
		t.Errorf("explain of the fused-view strategy missing:\n%s", errOut)
	}
}

func TestCLIJSONAndCSVSources(t *testing.T) {
	spec, _, _ := writeTestdata(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "whois.json")
	os.WriteFile(jsonPath, []byte(`[
	  {"name": "Joe Chung", "dept": "CS", "relation": "employee", "e_mail": "chung@cs"}
	]`), 0o600)
	empPath := filepath.Join(dir, "employee.csv")
	os.WriteFile(empPath, []byte("first_name,last_name,title\nJoe,Chung,professor\n"), 0o600)
	stuPath := filepath.Join(dir, "student.csv")
	os.WriteFile(stuPath, []byte("first_name,last_name,year\nNick,Naive,3\n"), 0o600)
	out, _, err := runCLI(t, "",
		"-spec", spec,
		"-source", "whois="+jsonPath+":person",
		"-source", "cs="+empPath+"+"+stuPath,
		`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "'professor'") {
		t.Errorf("JSON+CSV integration failed:\n%s", out)
	}
}

func TestCLIXMLAndStreamSources(t *testing.T) {
	spec, whois, cs := writeTestdata(t)
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "whois.xml")
	os.WriteFile(xmlPath, []byte(`<oem>
	  <person><name>Joe Chung</name><dept>CS</dept><relation>employee</relation><e_mail>chung@cs</e_mail></person>
	  <person><name>Nick Naive</name><dept>CS</dept><relation>student</relation><year>3</year></person>
	</oem>`), 0o600)
	query := `JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`
	out, _, err := runCLI(t, "",
		"-spec", spec, "-source", "whois="+xmlPath, "-source", "cs="+cs, query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "'professor'") || !strings.Contains(out, "'chung@cs'") {
		t.Errorf("XML-backed whois failed:\n%s", out)
	}
	// The same extent through an event log seeded from the OEM file.
	out2, _, err := runCLI(t, "",
		"-spec", spec, "-source", "whois=stream:"+whois, "-source", "cs="+cs, query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "'professor'") {
		t.Errorf("stream-backed whois failed:\n%s", out2)
	}
}

func TestCLIMatView(t *testing.T) {
	spec, whois, cs := writeTestdata(t)
	out, errOut, err := runCLI(t, "",
		"-spec", spec, "-source", "whois="+whois, "-source", "cs="+cs,
		"-matview", "cs_person:1h", "-explain-analyze",
		`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "'Joe Chung'") || !strings.Contains(out, "'professor'") {
		t.Errorf("materialized answer wrong:\n%s", out)
	}
	if !strings.Contains(errOut, "matscan(") || !strings.Contains(errOut, "matview.hit") {
		t.Errorf("query did not run against the extent:\n%s", errOut)
	}
}

func TestCLIMatViewFlagErrors(t *testing.T) {
	spec, whois, _ := writeTestdata(t)
	for _, bad := range []string{":5s", "cs_person:bogus", "cs_person:-1s"} {
		if _, _, err := runCLI(t, "", "-spec", spec, "-source", "whois="+whois,
			"-matview", bad); err == nil {
			t.Errorf("bad -matview %q accepted", bad)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	spec, whois, _ := writeTestdata(t)
	if _, _, err := runCLI(t, ""); err == nil {
		t.Error("missing -spec accepted")
	}
	if _, _, err := runCLI(t, "", "-spec", "/no/such/file.msl"); err == nil {
		t.Error("missing spec file accepted")
	}
	if _, _, err := runCLI(t, "", "-spec", spec, "-source", "malformed"); err == nil {
		t.Error("malformed -source accepted")
	}
	if _, _, err := runCLI(t, "", "-spec", spec, "-source", "whois="+whois,
		"-source", "cs=tcp:127.0.0.1:1", `X :- X:<a>@med.`); err == nil {
		t.Error("unreachable tcp source accepted")
	}
}
