#include "data/schema.h"

#include <gtest/gtest.h>

namespace rheem {
namespace {

Schema MakeSchema() {
  return Schema::Of({Field{"id", ValueType::kInt64},
                     Field{"name", ValueType::kString},
                     Field{"score", ValueType::kDouble}});
}

TEST(SchemaTest, IndexOfFindsByName) {
  Schema s = MakeSchema();
  EXPECT_EQ(s.IndexOf("id").ValueOrDie(), 0);
  EXPECT_EQ(s.IndexOf("score").ValueOrDie(), 2);
  EXPECT_TRUE(s.IndexOf("missing").status().IsNotFound());
}

#ifndef NDEBUG
TEST(SchemaDeathTest, FieldPastTheEndStopsADebugBuild) {
  const Schema s = MakeSchema();
  EXPECT_DEATH((void)s.field(3), "out of range");
  EXPECT_DEATH((void)Schema().field(0), "out of range");
}
#endif

TEST(SchemaTest, ValidateAcceptsMatchingRecord) {
  Schema s = MakeSchema();
  EXPECT_TRUE(s.ValidateRecord(Record({Value(1), Value("a"), Value(1.5)})).ok());
}

TEST(SchemaTest, ValidateAcceptsNullAnywhere) {
  Schema s = MakeSchema();
  EXPECT_TRUE(
      s.ValidateRecord(Record({Value(), Value(), Value()})).ok());
}

TEST(SchemaTest, ValidateWidensIntToDouble) {
  Schema s = MakeSchema();
  EXPECT_TRUE(s.ValidateRecord(Record({Value(1), Value("a"), Value(2)})).ok());
}

TEST(SchemaTest, ValidateRejectsArityMismatch) {
  Schema s = MakeSchema();
  EXPECT_TRUE(s.ValidateRecord(Record({Value(1)})).IsInvalidArgument());
}

TEST(SchemaTest, ValidateRejectsTypeMismatch) {
  Schema s = MakeSchema();
  EXPECT_FALSE(
      s.ValidateRecord(Record({Value("oops"), Value("a"), Value(1.0)})).ok());
  // double where int64 declared is NOT accepted (only widening, not
  // narrowing).
  EXPECT_FALSE(
      s.ValidateRecord(Record({Value(1.5), Value("a"), Value(1.0)})).ok());
}

TEST(SchemaTest, ConcatRenamesDuplicates) {
  Schema s = MakeSchema();
  Schema joined = Schema::Concat(s, s);
  EXPECT_EQ(joined.num_fields(), 6u);
  EXPECT_EQ(joined.field(0).name, "id");
  EXPECT_EQ(joined.field(3).name, "id_r");
  EXPECT_EQ(joined.field(4).name, "name_r");
}

TEST(SchemaTest, ConcatTripleAvoidsCollisionChain) {
  Schema s = Schema::Of({Field{"x", ValueType::kInt64}});
  Schema ss = Schema::Concat(s, s);
  Schema sss = Schema::Concat(ss, s);
  EXPECT_EQ(sss.field(0).name, "x");
  EXPECT_EQ(sss.field(1).name, "x_r");
  EXPECT_EQ(sss.field(2).name, "x_r_r");
}

TEST(SchemaTest, ProjectSubset) {
  Schema p = MakeSchema().Project({2, 0});
  EXPECT_EQ(p.num_fields(), 2u);
  EXPECT_EQ(p.field(0).name, "score");
  EXPECT_EQ(p.field(1).name, "id");
}

TEST(SchemaTest, EqualityStructural) {
  EXPECT_EQ(MakeSchema(), MakeSchema());
  Schema other = Schema::Of({Field{"id", ValueType::kInt64}});
  EXPECT_FALSE(MakeSchema() == other);
}

TEST(SchemaTest, ToStringListsFields) {
  EXPECT_EQ(MakeSchema().ToString(), "{id:int64, name:string, score:double}");
}

}  // namespace
}  // namespace rheem
