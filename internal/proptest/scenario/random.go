package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"privascope/internal/accesscontrol"
	"privascope/internal/anonymize"
	"privascope/internal/dataflow"
	"privascope/internal/risk"
	"privascope/internal/schema"
	"privascope/internal/synth"
)

// Where synth.Model, Population and synth.HealthRecords produce one
// fixed shape per spec, the Random* generators draw structure —
// service/flow/field counts, flow chains, policy kind, grant coverage,
// populations, datasets — from a caller-supplied *rand.Rand. Everything is a pure function of the generator state, so a
// scenario is reproducible from the single seed that created the Rand; the
// property-test harness (internal/proptest) relies on exactly that.

// PolicyKind selects how a random model's policy is written. Every kind is
// built from the same grant list, so analyses must behave identically across
// them — an invariant the property harness checks.
type PolicyKind int

// Policy kinds drawable by RandomModel.
const (
	// PolicyACL attaches the grants as a flat access-control list.
	PolicyACL PolicyKind = iota + 1
	// PolicyRBAC wraps each actor's grants into a role the actor is
	// assigned to and expands the roles back into an ACL.
	PolicyRBAC
	// PolicyComposite writes every other grant directly and the rest as
	// RBAC roles, and concatenates the two halves.
	PolicyComposite
)

// String returns the kind's name for scenario descriptions.
func (k PolicyKind) String() string {
	switch k {
	case PolicyACL:
		return "acl"
	case PolicyRBAC:
		return "rbac"
	case PolicyComposite:
		return "composite"
	}
	return fmt.Sprintf("policykind(%d)", int(k))
}

// RandomModelSpec bounds the structure RandomModel may draw. The zero value
// selects defaults small enough that privacy-LTS generation of any drawn
// model stays in the low-millisecond range — the property harness generates
// hundreds of them per `go test` run.
type RandomModelSpec struct {
	// MaxServices bounds the number of services; default 3 (at least 1 is
	// always drawn).
	MaxServices int
	// MaxFieldsPerService bounds the personal-data fields per service;
	// default 3 (at least 1).
	MaxFieldsPerService int
	// MaxExtraActors bounds the flow-less actors added to enlarge the
	// state-variable space; default 2 (may be 0).
	MaxExtraActors int
	// DropGrantProbability is the chance each flow-required grant is left
	// out of the policy, producing policy-consistency warnings; default 0.1.
	// Use a negative value for "never drop".
	DropGrantProbability float64
	// ExtraReadProbability is the chance each (non-flow actor, datastore)
	// pair receives a read grant no declared flow needs, producing the
	// potential-read transitions risk analysis assesses; default 0.5. Use a
	// negative value for "never".
	ExtraReadProbability float64
	// Policy forces a policy kind; zero draws one at random.
	Policy PolicyKind
}

func (s RandomModelSpec) withDefaults() RandomModelSpec {
	if s.MaxServices <= 0 {
		s.MaxServices = 3
	}
	if s.MaxFieldsPerService <= 0 {
		s.MaxFieldsPerService = 3
	}
	if s.MaxExtraActors < 0 {
		s.MaxExtraActors = 0
	} else if s.MaxExtraActors == 0 {
		s.MaxExtraActors = 2
	}
	if s.DropGrantProbability == 0 {
		s.DropGrantProbability = 0.1
	}
	if s.ExtraReadProbability == 0 {
		s.ExtraReadProbability = 0.5
	}
	return s
}

// RandomModel draws a valid data-flow model: 1..MaxServices services, each
// with a random flow chain over a random field set (collect and store always;
// read, disclose, anonymise into a dedicated anonymised store, and delete
// each drawn independently), a random set of extra actors, and a random
// ACL/RBAC/composite-written policy assembled from the flows' required grants (each
// dropped with DropGrantProbability) plus random extra read grants. The
// result always passes dataflow.Validate; structure, names and policy are a
// pure function of rng.
func RandomModel(rng *rand.Rand, spec RandomModelSpec) *dataflow.Model {
	spec = spec.withDefaults()
	services := 1 + rng.Intn(spec.MaxServices)
	kind := spec.Policy
	if kind == 0 {
		kind = PolicyKind(1 + rng.Intn(3))
	}

	b := dataflow.NewBuilder(
		fmt.Sprintf("fuzz-%dsvc-%s", services, kind),
		dataflow.Actor{ID: "subject", Name: "Data Subject"})

	extraActors := rng.Intn(spec.MaxExtraActors + 1)
	var bystanders []string
	for e := 0; e < extraActors; e++ {
		id := fmt.Sprintf("extra%d", e)
		b.AddActor(dataflow.Actor{ID: id, Name: fmt.Sprintf("Extra Actor %d", e)})
		bystanders = append(bystanders, id)
	}
	maintenance := "maintenance"
	b.AddActor(dataflow.Actor{ID: maintenance, Name: "Maintenance Operator"})
	bystanders = append(bystanders, maintenance)

	var required []accesscontrol.Grant // grants the declared flows need
	var stores []string
	for s := 0; s < services; s++ {
		svcID := fmt.Sprintf("service%d", s)
		collector := fmt.Sprintf("collector%d", s)
		storeID := fmt.Sprintf("store%d", s)
		b.AddService(dataflow.Service{ID: svcID, Name: svcID})
		b.AddActor(dataflow.Actor{ID: collector, Name: collector})

		nfields := 1 + rng.Intn(spec.MaxFieldsPerService)
		fields := make([]schema.Field, nfields)
		names := make([]string, nfields)
		for f := 0; f < nfields; f++ {
			name := fmt.Sprintf("field_%d_%d", s, f)
			category := schema.CategoryStandard
			switch {
			case f == 0:
				category = schema.CategoryIdentifier
			case f == nfields-1:
				category = schema.CategorySensitive
			case rng.Intn(2) == 0:
				category = schema.CategoryQuasiIdentifier
			}
			fields[f] = schema.Field{Name: name, Category: category}
			names[f] = name
		}
		b.AddDatastore(schema.Datastore{ID: storeID, Name: storeID,
			Schema: schema.Schema{Name: storeID, Fields: fields}})
		stores = append(stores, storeID)

		// The flow chain: collect and store always exist; each later stage
		// carries a non-empty subset of what its upstream stage handled, so
		// the chain is well-formed under both flow orderings.
		b.Flow(svcID, "subject", collector, names, "collect")
		b.Flow(svcID, collector, storeID, names, "store")
		required = append(required, accesscontrol.Grant{
			Actor: collector, Datastore: storeID, Fields: []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite}})

		readFields := names
		if rng.Float64() < 0.7 {
			processor := fmt.Sprintf("processor%d", s)
			b.AddActor(dataflow.Actor{ID: processor, Name: processor})
			readFields = subset(rng, names)
			b.Flow(svcID, storeID, processor, readFields, "process")
			required = append(required, accesscontrol.Grant{
				Actor: processor, Datastore: storeID, Fields: readFields,
				Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead}})

			if rng.Float64() < 0.5 {
				recipient := fmt.Sprintf("recipient%d", s)
				b.AddActor(dataflow.Actor{ID: recipient, Name: recipient})
				b.Flow(svcID, processor, recipient, subset(rng, readFields), "report")
			}
			if rng.Float64() < 0.3 {
				anonID := fmt.Sprintf("anonstore%d", s)
				anonFields := subset(rng, readFields)
				anonSchema := schema.Schema{Name: anonID}
				for _, f := range anonFields {
					anonSchema.Fields = append(anonSchema.Fields,
						schema.Field{Name: schema.AnonName(f), Category: schema.CategoryStandard})
				}
				b.AddDatastore(schema.Datastore{ID: anonID, Name: anonID,
					Schema: anonSchema, Anonymised: true})
				stores = append(stores, anonID)
				b.Flow(svcID, processor, anonID, anonFields, "pseudonymise")
				anonNames := make([]string, len(anonFields))
				for i, f := range anonFields {
					anonNames[i] = schema.AnonName(f)
				}
				required = append(required, accesscontrol.Grant{
					Actor: processor, Datastore: anonID, Fields: anonNames,
					Permissions: []accesscontrol.Permission{accesscontrol.PermissionWrite}})
			}
		}
		if rng.Float64() < 0.3 {
			b.AddFlow(dataflow.Flow{Service: svcID, From: collector, To: storeID,
				Fields: names, Purpose: "erase", Delete: true})
			required = append(required, accesscontrol.Grant{
				Actor: collector, Datastore: storeID, Fields: names,
				Permissions: []accesscontrol.Permission{accesscontrol.PermissionDelete}})
		}
	}

	grants := make([]accesscontrol.Grant, 0, len(required))
	for _, g := range required {
		if rng.Float64() < spec.DropGrantProbability {
			continue
		}
		grants = append(grants, g)
	}
	for _, actor := range bystanders {
		for _, storeID := range stores {
			if rng.Float64() < spec.ExtraReadProbability {
				grants = append(grants, accesscontrol.Grant{
					Actor: actor, Datastore: storeID,
					Fields:      []string{accesscontrol.AllFields},
					Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead},
					Reason:      "background access"})
			}
		}
	}

	b.WithPolicy(PolicyFromGrants(kind, grants))
	return b.MustBuild()
}

// subset draws a non-empty subset of names, preserving their order. The draw
// consumes exactly one rng value per element plus one reserve pick, keeping
// the generator's value stream — and therefore every downstream draw —
// deterministic per seed.
func subset(rng *rand.Rand, names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if rng.Intn(2) == 0 {
			out = append(out, n)
		}
	}
	reserve := names[rng.Intn(len(names))]
	if len(out) == 0 {
		out = append(out, reserve)
	}
	return out
}

// PolicyFromGrants writes one grant list as a policy of the given kind. All
// three kinds answer every Allows/ActorsWith query identically for the same
// grants — RBAC roles are named after the granted actor and the actor is
// assigned to exactly that role, and the composite concatenates the even
// grants with the RBAC expansion of the odd ones.
func PolicyFromGrants(kind PolicyKind, grants []accesscontrol.Grant) *accesscontrol.ACL {
	switch kind {
	case PolicyRBAC:
		return rbacFromGrants(grants).ACL()
	case PolicyComposite:
		var aclPart, rbacPart []accesscontrol.Grant
		for i, g := range grants {
			if i%2 == 0 {
				aclPart = append(aclPart, g)
			} else {
				rbacPart = append(rbacPart, g)
			}
		}
		return accesscontrol.MustACL(append(aclPart, rbacFromGrants(rbacPart).ACL().Grants()...)...)
	default:
		return accesscontrol.MustACL(grants...)
	}
}

// rbacFromGrants builds an RBAC policy with one role per granted actor.
func rbacFromGrants(grants []accesscontrol.Grant) *accesscontrol.RBAC {
	byActor := make(map[string][]accesscontrol.Grant)
	var actors []string
	for _, g := range grants {
		if _, seen := byActor[g.Actor]; !seen {
			actors = append(actors, g.Actor)
		}
		byActor[g.Actor] = append(byActor[g.Actor], g)
	}
	sort.Strings(actors)
	r := accesscontrol.NewRBAC()
	for _, actor := range actors {
		roleName := "role:" + actor
		if err := r.AddRole(accesscontrol.Role{Name: roleName, Grants: byActor[actor]}); err != nil {
			panic(err)
		}
		if err := r.Assign(actor, roleName); err != nil {
			panic(err)
		}
	}
	return r
}

// PopulationOptions configures the synthetic user-population generator.
type PopulationOptions struct {
	// Users is the number of profiles; default 50.
	Users int
	// Seed seeds the deterministic generator.
	Seed int64
	// ConsentProbability is the probability a user consents to each service;
	// default 0.7.
	ConsentProbability float64
	// SensitiveFields lists fields that receive elevated sensitivities; the
	// rest use the default.
	SensitiveFields []string
}

// Population generates user profiles for the given model: each user consents
// to a random subset of the model's services and draws per-field
// sensitivities, with the listed sensitive fields biased towards high values.
func Population(m *dataflow.Model, opts PopulationOptions) []risk.UserProfile {
	users := opts.Users
	if users <= 0 {
		users = 50
	}
	consentP := opts.ConsentProbability
	if consentP <= 0 || consentP > 1 {
		consentP = 0.7
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	sensitive := make(map[string]bool, len(opts.SensitiveFields))
	for _, f := range opts.SensitiveFields {
		sensitive[f] = true
	}
	services := m.ServiceIDs()
	fields := m.FieldUniverse()

	out := make([]risk.UserProfile, 0, users)
	for i := 0; i < users; i++ {
		profile := risk.UserProfile{
			ID:                 fmt.Sprintf("user-%04d", i),
			Sensitivities:      make(map[string]float64, len(fields)),
			DefaultSensitivity: 0.1,
		}
		for _, svc := range services {
			if rng.Float64() < consentP {
				profile.ConsentedServices = append(profile.ConsentedServices, svc)
			}
		}
		for _, f := range fields {
			if sensitive[f] {
				profile.Sensitivities[f] = 0.7 + rng.Float64()*0.3
			} else {
				profile.Sensitivities[f] = rng.Float64() * 0.5
			}
		}
		out = append(out, profile)
	}
	return out
}

// RandomPopulation draws a user population for the model: a random user
// count in [1, maxUsers], a random consent probability and the model's
// sensitive fields biased high, all derived from rng.
func RandomPopulation(rng *rand.Rand, m *dataflow.Model, maxUsers int) []risk.UserProfile {
	if maxUsers <= 0 {
		maxUsers = 8
	}
	return Population(m, PopulationOptions{
		Users:              1 + rng.Intn(maxUsers),
		Seed:               rng.Int63(),
		ConsentProbability: 0.3 + rng.Float64()*0.6,
		SensitiveFields:    synth.SensitiveFieldsOf(m),
	})
}

// RandomTable draws a health-record-style dataset with a random row count in
// [2, maxRows] and integer-valued quasi-identifier columns drawn from
// deliberately small ranges, so equivalence classes of every size occur. It
// returns the table and its quasi-identifier column names.
func RandomTable(rng *rand.Rand, maxRows int) (*anonymize.Table, []string) {
	if maxRows < 2 {
		maxRows = 64
	}
	rows := 2 + rng.Intn(maxRows-1)
	// Small ranges make class collisions (and k-anonymity successes) likely;
	// ranges themselves are drawn so tables differ in class structure.
	ageRange := 2 + rng.Intn(20)
	zipRange := 1 + rng.Intn(6)
	conditions := []string{"none", "asthma", "diabetes", "hypertension"}
	t := anonymize.MustTable(
		anonymize.Column{Name: "age", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "zip", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "condition", Role: anonymize.RoleSensitive},
	)
	for i := 0; i < rows; i++ {
		t.MustAddRow(
			anonymize.Num(float64(20+rng.Intn(ageRange))),
			anonymize.Num(float64(1000+rng.Intn(zipRange))),
			anonymize.Cat(conditions[rng.Intn(len(conditions))]),
		)
	}
	return t, []string{"age", "zip"}
}
