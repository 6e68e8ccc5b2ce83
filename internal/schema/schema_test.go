package schema

import (
	"testing"
	"testing/quick"
)

func TestCategoryString(t *testing.T) {
	tests := []struct {
		c    Category
		want string
	}{
		{CategoryStandard, "standard"},
		{CategoryIdentifier, "identifier"},
		{CategoryQuasiIdentifier, "quasi-identifier"},
		{CategorySensitive, "sensitive"},
		{Category(99), "category(99)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Category(%d).String() = %q, want %q", int(tt.c), got, tt.want)
		}
	}
}

func TestParseCategoryRoundTrip(t *testing.T) {
	for _, c := range []Category{CategoryStandard, CategoryIdentifier, CategoryQuasiIdentifier, CategorySensitive} {
		got, err := ParseCategory(c.String())
		if err != nil {
			t.Fatalf("ParseCategory(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("ParseCategory(%q) = %v, want %v", c.String(), got, c)
		}
	}
	if _, err := ParseCategory("nonsense"); err == nil {
		t.Error("ParseCategory(nonsense) expected error, got nil")
	}
}

func TestAnonNameHelpers(t *testing.T) {
	if got := AnonName("weight"); got != "weight_anon" {
		t.Errorf("AnonName(weight) = %q", got)
	}
	if got := AnonName("weight_anon"); got != "weight_anon" {
		t.Errorf("AnonName(weight_anon) = %q, want idempotent", got)
	}
	if !IsAnonName("weight_anon") || IsAnonName("weight") {
		t.Error("IsAnonName misclassifies")
	}
	if got := BaseName("weight_anon"); got != "weight" {
		t.Errorf("BaseName(weight_anon) = %q", got)
	}
	if got := BaseName("weight"); got != "weight" {
		t.Errorf("BaseName(weight) = %q", got)
	}
}

func TestFieldAnonField(t *testing.T) {
	f := Field{Name: "diagnosis", Category: CategorySensitive}
	a := f.AnonField()
	if a.Name != "diagnosis_anon" {
		t.Errorf("AnonField().Name = %q", a.Name)
	}
	if !a.Pseudonymised {
		t.Error("AnonField().Pseudonymised = false, want true")
	}
	if a.Category != CategorySensitive {
		t.Errorf("AnonField().Category = %v, want sensitive", a.Category)
	}
}

func TestSchemaValidate(t *testing.T) {
	valid := Schema{Name: "ehr", Fields: []Field{
		{Name: "name", Category: CategoryIdentifier},
		{Name: "diagnosis", Category: CategorySensitive},
	}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}

	tests := []struct {
		name string
		s    Schema
	}{
		{"empty name", Schema{Name: "", Fields: []Field{{Name: "x", Category: CategoryStandard}}}},
		{"empty field name", Schema{Name: "s", Fields: []Field{{Name: " ", Category: CategoryStandard}}}},
		{"duplicate field", Schema{Name: "s", Fields: []Field{
			{Name: "x", Category: CategoryStandard}, {Name: "x", Category: CategoryStandard}}}},
		{"invalid category", Schema{Name: "s", Fields: []Field{{Name: "x", Category: Category(42)}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.s.Validate(); err == nil {
				t.Errorf("Validate() = nil, want error")
			}
		})
	}
}

func TestNewSchemaAndLookups(t *testing.T) {
	s, err := NewSchema("appointments",
		Field{Name: "name", Category: CategoryIdentifier},
		Field{Name: "dob", Category: CategoryQuasiIdentifier},
		Field{Name: "appointment", Category: CategoryStandard},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	if !s.Contains("dob") {
		t.Error("Contains(dob) = false")
	}
	if s.Contains("missing") {
		t.Error("Contains(missing) = true")
	}
	f, ok := s.Field("name")
	if !ok || f.Category != CategoryIdentifier {
		t.Errorf("Field(name) = %+v, %v", f, ok)
	}
	wantNames := []string{"name", "dob", "appointment"}
	gotNames := s.FieldNames()
	if len(gotNames) != len(wantNames) {
		t.Fatalf("FieldNames() = %v", gotNames)
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] {
			t.Errorf("FieldNames()[%d] = %q, want %q", i, gotNames[i], wantNames[i])
		}
	}
	if qi := s.FieldsByCategory(CategoryQuasiIdentifier); len(qi) != 1 || qi[0] != "dob" {
		t.Errorf("FieldsByCategory(quasi) = %v", qi)
	}
}

func TestMustSchemaPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema with duplicate fields should panic")
		}
	}()
	MustSchema("bad", Field{Name: "x", Category: CategoryStandard}, Field{Name: "x", Category: CategoryStandard})
}

func TestSchemaAnonymised(t *testing.T) {
	s := MustSchema("metrics",
		Field{Name: "age", Category: CategoryQuasiIdentifier},
		Field{Name: "weight", Category: CategorySensitive},
	)
	a := s.Anonymised()
	if a.Name != "metrics_anon" {
		t.Errorf("Anonymised().Name = %q", a.Name)
	}
	for _, f := range a.Fields {
		if !f.Pseudonymised {
			t.Errorf("field %q not marked pseudonymised", f.Name)
		}
		if !IsAnonName(f.Name) {
			t.Errorf("field %q missing anon suffix", f.Name)
		}
	}
	// Idempotent on already-anonymised fields.
	aa := a.Anonymised()
	for i, f := range aa.Fields {
		if f.Name != a.Fields[i].Name {
			t.Errorf("double anonymisation changed field %q -> %q", a.Fields[i].Name, f.Name)
		}
	}
}

func TestDatastoreValidate(t *testing.T) {
	good := Datastore{ID: "ehr", Name: "EHR", Schema: MustSchema("ehr", Field{Name: "x", Category: CategoryStandard})}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid datastore rejected: %v", err)
	}
	bad := Datastore{ID: " ", Schema: good.Schema}
	if err := bad.Validate(); err == nil {
		t.Error("empty datastore ID accepted")
	}
	badSchema := Datastore{ID: "x", Schema: Schema{Name: ""}}
	if err := badSchema.Validate(); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestFieldSetBasics(t *testing.T) {
	fs := NewFieldSet("b", "a", "a")
	if fs.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", fs.Len())
	}
	if !fs.Contains("a") || fs.Contains("c") {
		t.Error("Contains misbehaves")
	}
	if got := fs.String(); got != "a, b" {
		t.Errorf("String() = %q", got)
	}
	var zero FieldSet
	if !zero.IsEmpty() {
		t.Error("zero FieldSet should be empty")
	}
	if zero.Contains("a") {
		t.Error("zero FieldSet should contain nothing")
	}
}

func TestFieldSetAlgebra(t *testing.T) {
	a := NewFieldSet("x", "y")
	b := NewFieldSet("y", "z")

	union := a.Union(b)
	if got := union.String(); got != "x, y, z" {
		t.Errorf("Union = %q", got)
	}
	inter := a.Intersect(b)
	if got := inter.String(); got != "y" {
		t.Errorf("Intersect = %q", got)
	}
	minus := a.Minus(b)
	if got := minus.String(); got != "x" {
		t.Errorf("Minus = %q", got)
	}
	if !union.ContainsAll(a) || !union.ContainsAll(b) {
		t.Error("union should contain both operands")
	}
	if a.Equal(b) {
		t.Error("distinct sets reported equal")
	}
	if !a.Equal(NewFieldSet("y", "x")) {
		t.Error("equal sets reported unequal")
	}
	// Operands must not be mutated.
	if a.Len() != 2 || b.Len() != 2 {
		t.Error("set algebra mutated its operands")
	}
}

func TestFieldSetUnionProperties(t *testing.T) {
	// Property: union is commutative and contains both operands; intersection
	// is a subset of both operands.
	f := func(xs, ys []string) bool {
		a := NewFieldSet(xs...)
		b := NewFieldSet(ys...)
		u1 := a.Union(b)
		u2 := b.Union(a)
		if !u1.Equal(u2) {
			return false
		}
		if !u1.ContainsAll(a) || !u1.ContainsAll(b) {
			return false
		}
		in := a.Intersect(b)
		return a.ContainsAll(in) && b.ContainsAll(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFieldSetMinusProperty(t *testing.T) {
	// Property: (a minus b) is disjoint from b and a subset of a.
	f := func(xs, ys []string) bool {
		a := NewFieldSet(xs...)
		b := NewFieldSet(ys...)
		d := a.Minus(b)
		if !a.ContainsAll(d) {
			return false
		}
		return d.Intersect(b).IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
