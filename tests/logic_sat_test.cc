// Tests for the pragmatic satisfiability test (sec. 4.1.3): domain-range
// propagation, relational links with transitive <, >, =, implication, and
// the conjunction solver used for rule repair.

#include <gtest/gtest.h>

#include "common/random.h"
#include "logic/domain_range.h"
#include "logic/sat.h"
#include "stats/distribution.h"

namespace dq {
namespace {

Schema SatSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("A", {"x", "y", "z"}).ok());
  EXPECT_TRUE(s.AddNominal("B", {"x", "y", "z"}).ok());
  EXPECT_TRUE(s.AddNumeric("N", 0.0, 10.0).ok());
  EXPECT_TRUE(s.AddNumeric("M", 0.0, 10.0).ok());
  EXPECT_TRUE(s.AddNumeric("K", 0.0, 10.0).ok());
  EXPECT_TRUE(s.AddDate("D", 0, 10).ok());
  EXPECT_TRUE(s.AddDate("E", 0, 10).ok());
  return s;
}

Atom AEq(int32_t v) { return Atom::Prop(0, AtomOp::kEq, Value::Nominal(v)); }
Atom ANeq(int32_t v) { return Atom::Prop(0, AtomOp::kNeq, Value::Nominal(v)); }
Atom NLt(double v) { return Atom::Prop(2, AtomOp::kLt, Value::Numeric(v)); }
Atom NGt(double v) { return Atom::Prop(2, AtomOp::kGt, Value::Numeric(v)); }

// --- DomainRange -------------------------------------------------------------

TEST(DomainRangeTest, NominalRestriction) {
  Schema s = SatSchema();
  DomainRange r = DomainRange::FullDomain(s.attribute(0));
  EXPECT_FALSE(r.ValuesEmpty());
  r.RestrictNeq(Value::Nominal(0));
  r.RestrictNeq(Value::Nominal(2));
  Value single;
  ASSERT_TRUE(r.SingleValue(&single));
  EXPECT_EQ(single.nominal_code(), 1);
  r.RestrictNeq(Value::Nominal(1));
  EXPECT_TRUE(r.ValuesEmpty());
  EXPECT_FALSE(r.Empty());  // null still allowed
  r.ForbidNull();
  EXPECT_TRUE(r.Empty());
}

TEST(DomainRangeTest, NumericIntervalRestriction) {
  Schema s = SatSchema();
  DomainRange r = DomainRange::FullDomain(s.attribute(2));
  r.RestrictGt(Value::Numeric(3.0));
  r.RestrictLt(Value::Numeric(7.0));
  EXPECT_FALSE(r.ValuesEmpty());
  EXPECT_TRUE(r.Contains(Value::Numeric(5.0)));
  EXPECT_FALSE(r.Contains(Value::Numeric(3.0)));  // open bound
  EXPECT_FALSE(r.Contains(Value::Numeric(7.0)));
  EXPECT_FALSE(r.Contains(Value::Numeric(2.0)));
}

TEST(DomainRangeTest, NumericEqCollapsesInterval) {
  Schema s = SatSchema();
  DomainRange r = DomainRange::FullDomain(s.attribute(2));
  r.RestrictEq(Value::Numeric(4.0));
  Value v;
  ASSERT_TRUE(r.SingleValue(&v));
  EXPECT_DOUBLE_EQ(v.numeric(), 4.0);
  r.RestrictNeq(Value::Numeric(4.0));
  EXPECT_TRUE(r.ValuesEmpty());
}

TEST(DomainRangeTest, EqOutsideIntervalEmpties) {
  Schema s = SatSchema();
  DomainRange r = DomainRange::FullDomain(s.attribute(2));
  r.RestrictLt(Value::Numeric(3.0));
  r.RestrictEq(Value::Numeric(5.0));
  EXPECT_TRUE(r.ValuesEmpty());
}

TEST(DomainRangeTest, IntegerAxisNormalizesStrictBounds) {
  Schema s = SatSchema();
  DomainRange r = DomainRange::FullDomain(s.attribute(5));  // date 0..10
  r.RestrictGt(Value::Date(3));
  r.RestrictLt(Value::Date(6));
  // Integral axis: (3, 6) == [4, 5].
  EXPECT_TRUE(r.Contains(Value::Date(4)));
  EXPECT_TRUE(r.Contains(Value::Date(5)));
  EXPECT_FALSE(r.Contains(Value::Date(3)));
  EXPECT_FALSE(r.Contains(Value::Date(6)));
  r.RestrictNeq(Value::Date(4));
  Value v;
  ASSERT_TRUE(r.SingleValue(&v));
  EXPECT_EQ(v.date_days(), 5);
  r.RestrictNeq(Value::Date(5));
  EXPECT_TRUE(r.ValuesEmpty());
}

TEST(DomainRangeTest, IsNullForbidsValues) {
  Schema s = SatSchema();
  DomainRange r = DomainRange::FullDomain(s.attribute(2));
  r.ForbidValues();
  EXPECT_TRUE(r.ValuesEmpty());
  EXPECT_FALSE(r.Empty());
  EXPECT_TRUE(r.Contains(Value::Null()));
}

TEST(DomainRangeTest, SampleValueRespectsRestrictions) {
  Schema s = SatSchema();
  Rng rng(8);
  DomainRange r = DomainRange::FullDomain(s.attribute(2));
  r.RestrictGt(Value::Numeric(2.0));
  r.RestrictLt(Value::Numeric(4.0));
  for (int i = 0; i < 500; ++i) {
    Value v = r.SampleValue(&rng);
    EXPECT_TRUE(r.Contains(v)) << v.ToDebugString();
  }
  DomainRange nom = DomainRange::FullDomain(s.attribute(0));
  nom.RestrictNeq(Value::Nominal(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(nom.SampleValue(&rng).nominal_code(), 1);
  }
}

TEST(DomainRangeTest, PointDomainPastHalfDblMaxSamplesItsValue) {
  // lo + hi overflows to inf here; the sample must still be the point.
  Schema s;
  ASSERT_TRUE(s.AddNumeric("W", -1e308, 1e308).ok());
  Rng rng(8);
  for (const double v : {9.5e307, -9.5e307}) {
    DomainRange r = DomainRange::FullDomain(s.attribute(0));
    r.RestrictEq(Value::Numeric(v));
    const Value x = r.SampleValue(&rng);
    EXPECT_EQ(x.numeric(), v);
    EXPECT_TRUE(r.Contains(x));
  }
}

TEST(DomainRangeTest, IntersectWithMergesBounds) {
  Schema s = SatSchema();
  DomainRange a = DomainRange::FullDomain(s.attribute(2));
  DomainRange b = DomainRange::FullDomain(s.attribute(2));
  a.RestrictGt(Value::Numeric(2.0));
  b.RestrictLt(Value::Numeric(5.0));
  b.ForbidNull();
  EXPECT_TRUE(a.IntersectWith(b));
  EXPECT_FALSE(a.allow_null());
  EXPECT_TRUE(a.Contains(Value::Numeric(3.0)));
  EXPECT_FALSE(a.Contains(Value::Numeric(6.0)));
  EXPECT_FALSE(a.Contains(Value::Numeric(2.0)));
}

// --- Satisfiability ------------------------------------------------------------

TEST(SatTest, PaperContradictionExample) {
  // "A = Val1 AND A = Val2 -> ..." — the premise A=x AND A=y is
  // unsatisfiable (sec. 4.1.2 example 2).
  Schema s = SatSchema();
  SatChecker sat(&s);
  EXPECT_FALSE(sat.ConjunctionSatisfiable({AEq(0), AEq(1)}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({AEq(0)}));
}

TEST(SatTest, EqAndNeqSameValue) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  EXPECT_FALSE(sat.ConjunctionSatisfiable({AEq(1), ANeq(1)}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({AEq(1), ANeq(0)}));
}

TEST(SatTest, NullInterplay) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Atom isnull = Atom::Prop(0, AtomOp::kIsNull);
  Atom isnotnull = Atom::Prop(0, AtomOp::kIsNotNull);
  EXPECT_FALSE(sat.ConjunctionSatisfiable({isnull, isnotnull}));
  EXPECT_FALSE(sat.ConjunctionSatisfiable({isnull, AEq(0)}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({isnotnull, AEq(0)}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({isnull}));
}

TEST(SatTest, NumericBoundsConflict) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  EXPECT_FALSE(sat.ConjunctionSatisfiable({NLt(3.0), NGt(7.0)}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({NGt(3.0), NLt(7.0)}));
  // Touching bounds: N > 5 AND N < 5.
  EXPECT_FALSE(sat.ConjunctionSatisfiable({NGt(5.0), NLt(5.0)}));
  // Constants outside the domain: N > 10 is unsatisfiable in [0, 10].
  EXPECT_FALSE(sat.ConjunctionSatisfiable({NGt(10.0)}));
  EXPECT_FALSE(sat.ConjunctionSatisfiable({NLt(0.0)}));
}

TEST(SatTest, ExhaustedNominalDomain) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  EXPECT_FALSE(sat.ConjunctionSatisfiable({ANeq(0), ANeq(1), ANeq(2)}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({ANeq(0), ANeq(1)}));
}

TEST(SatTest, RelationalEqualityPropagatesDomains) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Atom a_eq_b = Atom::Rel(0, AtomOp::kEq, 1);
  Atom b_eq_x = Atom::Prop(1, AtomOp::kEq, Value::Nominal(0));
  // A = B, B = x, A != x: contradiction through the link.
  EXPECT_FALSE(sat.ConjunctionSatisfiable({a_eq_b, b_eq_x, ANeq(0)}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({a_eq_b, b_eq_x, AEq(0)}));
}

TEST(SatTest, RelationalNeqWithPinnedValues) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Atom a_neq_b = Atom::Rel(0, AtomOp::kNeq, 1);
  Atom b_eq_x = Atom::Prop(1, AtomOp::kEq, Value::Nominal(0));
  EXPECT_FALSE(sat.ConjunctionSatisfiable({a_neq_b, b_eq_x, AEq(0)}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({a_neq_b, b_eq_x, AEq(1)}));
}

TEST(SatTest, EqAndNeqBetweenSameAttributes) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  EXPECT_FALSE(sat.ConjunctionSatisfiable(
      {Atom::Rel(0, AtomOp::kEq, 1), Atom::Rel(0, AtomOp::kNeq, 1)}));
}

TEST(SatTest, StrictOrderCycleDetected) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Atom n_lt_m = Atom::Rel(2, AtomOp::kLt, 3);
  Atom m_lt_n = Atom::Rel(3, AtomOp::kLt, 2);
  EXPECT_FALSE(sat.ConjunctionSatisfiable({n_lt_m, m_lt_n}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({n_lt_m}));
  // Longer cycle N < M, M < K, K < N.
  Atom m_lt_k = Atom::Rel(3, AtomOp::kLt, 4);
  Atom k_lt_n = Atom::Rel(4, AtomOp::kLt, 2);
  EXPECT_FALSE(sat.ConjunctionSatisfiable({n_lt_m, m_lt_k, k_lt_n}));
  EXPECT_TRUE(sat.ConjunctionSatisfiable({n_lt_m, m_lt_k}));
}

TEST(SatTest, GtIsLtFlipped) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Atom n_gt_m = Atom::Rel(2, AtomOp::kGt, 3);
  Atom n_lt_m = Atom::Rel(2, AtomOp::kLt, 3);
  EXPECT_FALSE(sat.ConjunctionSatisfiable({n_gt_m, n_lt_m}));
}

TEST(SatTest, TransitiveBoundPropagation) {
  // N < M, M < K, K < 2 in a domain starting at 0: satisfiable only while
  // enough room remains below 2; N > 1.9 makes it unsatisfiable... but the
  // continuous axis always has room, so instead pin with dates (integers).
  Schema s = SatSchema();
  SatChecker sat(&s);
  Atom d_lt_e = Atom::Rel(5, AtomOp::kLt, 6);
  Atom e_lt_2 = Atom::Prop(6, AtomOp::kLt, Value::Date(2));
  Atom d_gt_0 = Atom::Prop(5, AtomOp::kGt, Value::Date(0));
  // D in (0, .), D < E, E < 2 => D = 1 impossible to beat: E must be > D
  // and < 2, so E... D >= 1, E > 1 and E <= 1: unsatisfiable.
  EXPECT_FALSE(sat.ConjunctionSatisfiable({d_lt_e, e_lt_2, d_gt_0}));
  // Without the lower bound on D it works (D=0, E=1).
  EXPECT_TRUE(sat.ConjunctionSatisfiable({d_lt_e, e_lt_2}));
}

TEST(SatTest, EqClassMergesWithOrderLinks) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  // N = M and N < M is a contradiction (strict order within a class).
  EXPECT_FALSE(sat.ConjunctionSatisfiable(
      {Atom::Rel(2, AtomOp::kEq, 3), Atom::Rel(2, AtomOp::kLt, 3)}));
}

TEST(SatTest, FormulaLevelSatisfiability) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  // (A = x AND A = y) OR (N > 3) is satisfiable via the second disjunct.
  Formula f = Formula::Or(
      {Formula::And({Formula::MakeAtom(AEq(0)), Formula::MakeAtom(AEq(1))}),
       Formula::MakeAtom(NGt(3.0))});
  auto r = sat.Satisfiable(f);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  Formula impossible = Formula::And(
      {Formula::MakeAtom(AEq(0)), Formula::MakeAtom(AEq(1))});
  auto r2 = sat.Satisfiable(impossible);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

// --- Implication ---------------------------------------------------------------

TEST(ImplicationTest, PaperTautologyExample) {
  // "A = Val1 -> A != Val2" is tautological (sec. 4.1.2 example 3).
  Schema s = SatSchema();
  SatChecker sat(&s);
  auto r = sat.Implies(Formula::MakeAtom(AEq(0)), Formula::MakeAtom(ANeq(1)));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(ImplicationTest, NonImplication) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  // A = x does not imply B = x.
  auto r = sat.Implies(
      Formula::MakeAtom(AEq(0)),
      Formula::MakeAtom(Atom::Prop(1, AtomOp::kEq, Value::Nominal(0))));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(ImplicationTest, StrongerPremiseImpliesWeaker) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Formula strict = Formula::And(
      {Formula::MakeAtom(NGt(3.0)), Formula::MakeAtom(NLt(5.0))});
  Formula weak = Formula::MakeAtom(NGt(2.0));
  auto r = sat.Implies(strict, weak);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  auto r2 = sat.Implies(weak, strict);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST(ImplicationTest, DisjunctionImpliedByMember) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Formula disj = Formula::Or({Formula::MakeAtom(AEq(0)), Formula::MakeAtom(AEq(1))});
  auto r = sat.Implies(Formula::MakeAtom(AEq(0)), disj);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(ImplicationTest, EqImpliesIsNotNull) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  auto r = sat.Implies(Formula::MakeAtom(AEq(0)),
                       Formula::MakeAtom(Atom::Prop(0, AtomOp::kIsNotNull)));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(ImplicationTest, DateIntervalImplication) {
  // Date axes are integral: D > 2 AND (D < 6 OR D = 6)  =>  D > 1, and the
  // tightened interval [3, 6] does not imply the stricter D > 3.
  Schema s = SatSchema();
  SatChecker sat(&s);
  Formula box = Formula::And(
      {Formula::MakeAtom(Atom::Prop(5, AtomOp::kGt, Value::Date(2))),
       Formula::Or(
           {Formula::MakeAtom(Atom::Prop(5, AtomOp::kLt, Value::Date(6))),
            Formula::MakeAtom(Atom::Prop(5, AtomOp::kEq, Value::Date(6)))})});
  auto weaker = sat.Implies(
      box, Formula::MakeAtom(Atom::Prop(5, AtomOp::kGt, Value::Date(1))));
  ASSERT_TRUE(weaker.ok());
  EXPECT_TRUE(*weaker);
  auto stricter = sat.Implies(
      box, Formula::MakeAtom(Atom::Prop(5, AtomOp::kGt, Value::Date(3))));
  ASSERT_TRUE(stricter.ok());
  EXPECT_FALSE(*stricter);
}

TEST(ImplicationTest, DateIntegerSharpening) {
  // On an integer axis D < 5 means D <= 4, so D < 5 AND D > 3 pins D = 4.
  Schema s = SatSchema();
  SatChecker sat(&s);
  Formula pinned = Formula::And(
      {Formula::MakeAtom(Atom::Prop(5, AtomOp::kLt, Value::Date(5))),
       Formula::MakeAtom(Atom::Prop(5, AtomOp::kGt, Value::Date(3)))});
  auto r = sat.Implies(
      pinned, Formula::MakeAtom(Atom::Prop(5, AtomOp::kEq, Value::Date(4))));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  // The numeric twin (N < 5 AND N > 3) keeps a continuum and implies no
  // single value.
  Formula open_interval =
      Formula::And({Formula::MakeAtom(NLt(5.0)), Formula::MakeAtom(NGt(3.0))});
  auto rn = sat.Implies(
      open_interval,
      Formula::MakeAtom(Atom::Prop(2, AtomOp::kEq, Value::Numeric(4.0))));
  ASSERT_TRUE(rn.ok());
  EXPECT_FALSE(*rn);
}

TEST(ImplicationTest, CategoricalSetMembership) {
  // A = x implies membership in the superset {x, y}; the reverse does not
  // hold.
  Schema s = SatSchema();
  SatChecker sat(&s);
  Formula set_xy = Formula::Or(
      {Formula::MakeAtom(AEq(0)), Formula::MakeAtom(AEq(1))});
  auto forward = sat.Implies(Formula::MakeAtom(AEq(0)), set_xy);
  ASSERT_TRUE(forward.ok());
  EXPECT_TRUE(*forward);
  auto backward = sat.Implies(set_xy, Formula::MakeAtom(AEq(0)));
  ASSERT_TRUE(backward.ok());
  EXPECT_FALSE(*backward);
}

TEST(ImplicationTest, CategoricalComplementEquivalence) {
  // Over the 3-category domain {x, y, z}, (A = x OR A = y) and A != z name
  // the same non-null set — implication holds both ways.
  Schema s = SatSchema();
  SatChecker sat(&s);
  Formula set_xy = Formula::Or(
      {Formula::MakeAtom(AEq(0)), Formula::MakeAtom(AEq(1))});
  Formula not_z = Formula::MakeAtom(ANeq(2));
  auto forward = sat.Implies(set_xy, not_z);
  ASSERT_TRUE(forward.ok());
  EXPECT_TRUE(*forward);
  auto backward = sat.Implies(not_z, set_xy);
  ASSERT_TRUE(backward.ok());
  EXPECT_TRUE(*backward);
}

// --- Abstract-domain operations --------------------------------------------------

TEST(DomainRangeTest, CoversIsPartialOrder) {
  Schema s = SatSchema();
  DomainRange full = DomainRange::FullDomain(s.attribute(2));
  DomainRange narrow = DomainRange::FullDomain(s.attribute(2));
  narrow.RestrictGt(Value::Numeric(3.0));
  narrow.RestrictLt(Value::Numeric(7.0));
  EXPECT_TRUE(full.Covers(narrow));
  EXPECT_FALSE(narrow.Covers(full));
  EXPECT_TRUE(narrow.Covers(narrow));
  // Null permission participates in the order.
  DomainRange no_null = DomainRange::FullDomain(s.attribute(2));
  no_null.ForbidNull();
  EXPECT_TRUE(full.Covers(no_null));
  EXPECT_FALSE(no_null.Covers(full));
}

TEST(DomainRangeTest, CoversRespectsExcludedPoints) {
  Schema s = SatSchema();
  DomainRange holed = DomainRange::FullDomain(s.attribute(2));
  holed.RestrictNeq(Value::Numeric(5.0));
  DomainRange point = DomainRange::FullDomain(s.attribute(2));
  point.RestrictEq(Value::Numeric(5.0));
  EXPECT_FALSE(holed.Covers(point));
  DomainRange other_point = DomainRange::FullDomain(s.attribute(2));
  other_point.RestrictEq(Value::Numeric(4.0));
  EXPECT_TRUE(holed.Covers(other_point));
}

TEST(DomainRangeTest, JoinWithoutGapIsExact) {
  Schema s = SatSchema();
  DomainRange a = DomainRange::FullDomain(s.attribute(2));
  a.RestrictGt(Value::Numeric(2.0));
  a.RestrictLt(Value::Numeric(5.0));
  DomainRange b = DomainRange::FullDomain(s.attribute(2));
  b.RestrictGt(Value::Numeric(4.0));
  b.RestrictLt(Value::Numeric(8.0));
  EXPECT_FALSE(a.JoinWith(b));  // overlapping intervals: no gap covered
  EXPECT_TRUE(a.Contains(Value::Numeric(7.5)));
  EXPECT_FALSE(a.Contains(Value::Numeric(2.0)));
  EXPECT_FALSE(a.Contains(Value::Numeric(8.0)));
}

TEST(DomainRangeTest, JoinOverGapReportsPrecisionLoss) {
  Schema s = SatSchema();
  DomainRange a = DomainRange::FullDomain(s.attribute(2));
  a.RestrictLt(Value::Numeric(3.0));
  DomainRange b = DomainRange::FullDomain(s.attribute(2));
  b.RestrictGt(Value::Numeric(7.0));
  EXPECT_TRUE(a.JoinWith(b));  // hull covers the (3, 7) gap
  EXPECT_TRUE(a.Contains(Value::Numeric(5.0)));  // over-approximation
}

TEST(DomainRangeTest, JoinKeepsCommonExclusionsOnly) {
  Schema s = SatSchema();
  DomainRange a = DomainRange::FullDomain(s.attribute(2));
  a.RestrictNeq(Value::Numeric(4.0));
  a.RestrictNeq(Value::Numeric(6.0));
  DomainRange b = DomainRange::FullDomain(s.attribute(2));
  b.RestrictNeq(Value::Numeric(6.0));
  EXPECT_FALSE(a.JoinWith(b));
  EXPECT_TRUE(a.Contains(Value::Numeric(4.0)));   // b admits 4
  EXPECT_FALSE(a.Contains(Value::Numeric(6.0)));  // neither admits 6
}

TEST(DomainRangeTest, JoinNominalUnionsCategories) {
  Schema s = SatSchema();
  DomainRange a = DomainRange::FullDomain(s.attribute(0));
  a.RestrictEq(Value::Nominal(0));
  DomainRange b = DomainRange::FullDomain(s.attribute(0));
  b.RestrictEq(Value::Nominal(1));
  EXPECT_FALSE(a.JoinWith(b));  // finite set union: never over-approximates
  EXPECT_TRUE(a.Contains(Value::Nominal(0)));
  EXPECT_TRUE(a.Contains(Value::Nominal(1)));
  EXPECT_FALSE(a.Contains(Value::Nominal(2)));
}

TEST(DomainRangeTest, WidenJumpsUnstableBounds) {
  Schema s = SatSchema();  // N has domain [0, 10]
  DomainRange prev = DomainRange::FullDomain(s.attribute(2));
  prev.RestrictGt(Value::Numeric(3.0));
  prev.RestrictLt(Value::Numeric(5.0));
  DomainRange cur = DomainRange::FullDomain(s.attribute(2));
  cur.RestrictGt(Value::Numeric(2.0));  // lower bound moved outward
  cur.RestrictLt(Value::Numeric(5.0));  // upper bound stable
  EXPECT_TRUE(cur.WidenAgainst(prev, s.attribute(2)));
  EXPECT_TRUE(cur.Contains(Value::Numeric(0.5)));   // jumped to domain lo
  EXPECT_FALSE(cur.Contains(Value::Numeric(5.0)));  // stable bound kept
}

TEST(DomainRangeTest, WidenStableIsNoOp) {
  Schema s = SatSchema();
  DomainRange prev = DomainRange::FullDomain(s.attribute(2));
  prev.RestrictGt(Value::Numeric(3.0));
  DomainRange cur = prev;
  EXPECT_FALSE(cur.WidenAgainst(prev, s.attribute(2)));
  EXPECT_FALSE(cur.Contains(Value::Numeric(3.0)));
  // Nominal ranges are finite lattices: widening is always a no-op.
  DomainRange nom_prev = DomainRange::FullDomain(s.attribute(0));
  nom_prev.RestrictEq(Value::Nominal(0));
  DomainRange nom_cur = DomainRange::FullDomain(s.attribute(0));
  EXPECT_FALSE(nom_cur.WidenAgainst(nom_prev, s.attribute(0)));
}

// --- SolveConjunction -----------------------------------------------------------

TEST(SolveTest, SolvesAndKeepsBaseValues) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Rng rng(15);
  Row base(s.num_attributes());
  base[0] = Value::Nominal(2);
  base[1] = Value::Nominal(2);
  base[2] = Value::Numeric(9.0);
  // Require A = x; B untouched by the atoms must stay.
  auto solved = sat.SolveConjunction({AEq(0)}, base, &rng);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_EQ((*solved)[0].nominal_code(), 0);
  EXPECT_EQ((*solved)[1].nominal_code(), 2);
  EXPECT_DOUBLE_EQ((*solved)[2].numeric(), 9.0);
}

TEST(SolveTest, AlreadySatisfiedKeepsEverything) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Rng rng(16);
  Row base(s.num_attributes());
  base[2] = Value::Numeric(4.0);
  auto solved = sat.SolveConjunction({NGt(3.0), NLt(5.0)}, base, &rng);
  ASSERT_TRUE(solved.ok());
  EXPECT_DOUBLE_EQ((*solved)[2].numeric(), 4.0);
}

TEST(SolveTest, RelationalChainsSolved) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Rng rng(17);
  std::vector<Atom> atoms{Atom::Rel(2, AtomOp::kLt, 3),
                          Atom::Rel(3, AtomOp::kLt, 4),
                          Atom::Prop(4, AtomOp::kLt, Value::Numeric(1.0))};
  for (int trial = 0; trial < 50; ++trial) {
    Row base(s.num_attributes());
    base[2] = Value::Numeric(rng.UniformReal(0, 10));
    base[3] = Value::Numeric(rng.UniformReal(0, 10));
    base[4] = Value::Numeric(rng.UniformReal(0, 10));
    auto solved = sat.SolveConjunction(atoms, base, &rng);
    ASSERT_TRUE(solved.ok()) << solved.status();
    for (const Atom& a : atoms) {
      EXPECT_TRUE(a.Evaluate(*solved));
    }
  }
}

TEST(SolveTest, EqualityLinkCopiesValue) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Rng rng(18);
  Row base(s.num_attributes());
  base[0] = Value::Nominal(1);
  base[1] = Value::Nominal(2);
  auto solved = sat.SolveConjunction({Atom::Rel(0, AtomOp::kEq, 1)}, base, &rng);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ((*solved)[0].nominal_code(), (*solved)[1].nominal_code());
}

TEST(SolveTest, IsNullSetsNull) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Rng rng(19);
  Row base(s.num_attributes());
  base[0] = Value::Nominal(1);
  auto solved =
      sat.SolveConjunction({Atom::Prop(0, AtomOp::kIsNull)}, base, &rng);
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE((*solved)[0].is_null());
}

TEST(SolveTest, UnsatisfiableReported) {
  Schema s = SatSchema();
  SatChecker sat(&s);
  Rng rng(20);
  Row base(s.num_attributes());
  auto solved = sat.SolveConjunction({AEq(0), AEq(1)}, base, &rng);
  EXPECT_FALSE(solved.ok());
  EXPECT_TRUE(solved.status().IsUnsatisfiable());
}

TEST(SolveTest, RandomConjunctionsProperty) {
  // Property: whenever the checker claims satisfiability and the solver
  // returns a row, every atom of the conjunction holds on that row.
  Schema s = SatSchema();
  SatChecker sat(&s);
  Rng rng(21);
  int solved_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Atom> atoms;
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < n; ++i) {
      switch (rng.UniformInt(0, 5)) {
        case 0:
          atoms.push_back(AEq(static_cast<int32_t>(rng.UniformInt(0, 2))));
          break;
        case 1:
          atoms.push_back(ANeq(static_cast<int32_t>(rng.UniformInt(0, 2))));
          break;
        case 2:
          atoms.push_back(NLt(rng.UniformReal(0, 10)));
          break;
        case 3:
          atoms.push_back(NGt(rng.UniformReal(0, 10)));
          break;
        case 4:
          atoms.push_back(Atom::Rel(2, AtomOp::kLt, 3));
          break;
        default:
          atoms.push_back(Atom::Rel(0, AtomOp::kEq, 1));
          break;
      }
    }
    Row base(s.num_attributes());
    for (size_t a = 0; a < s.num_attributes(); ++a) {
      base[a] = SampleValue(DistributionSpec::Uniform(), s.attribute(a), &rng);
    }
    auto solved = sat.SolveConjunction(atoms, base, &rng);
    if (!solved.ok()) continue;
    ++solved_count;
    for (const Atom& a : atoms) {
      ASSERT_TRUE(a.Evaluate(*solved));
    }
  }
  EXPECT_GT(solved_count, 150);  // most random conjunctions are satisfiable
}

}  // namespace
}  // namespace dq
