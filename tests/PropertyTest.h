//===- tests/PropertyTest.h - Properties over part of a grid ----*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value-parameterized properties that hold on part of a parameter grid. A
/// TEST_P runs over every value its suite is instantiated with, so a
/// property promised on one corner of the grid would have to skip the rest
/// on every run. ALTER_PROPERTY registers the property only for the values
/// its predicate accepts, under the names a TEST_P instantiation gives them
/// ("<Suite>.<Property>/<value name>", the value printed as GetParam()), so
/// gtest filters and ctest names read the same. A fixture names its suite
/// and its grid:
///
///   struct PolicyMatrix : PropertyTest<MatrixParam> {
///     static constexpr const char *Suite = "Lattice/PolicyMatrix";
///     static std::vector<MatrixParam> grid();
///     static std::string name(const MatrixParam &P);
///   };
///
///   ALTER_PROPERTY(PolicyMatrix, InOrderRetiresInProgramOrder, isInOrder) {
///     ... GetParam() ...
///   }
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_TESTS_PROPERTYTEST_H
#define ALTER_TESTS_PROPERTYTEST_H

#include <gtest/gtest.h>

#include <string>

namespace alter {

/// Base of a property fixture: holds the value one registered case runs on.
template <typename ParamT> class PropertyTest : public ::testing::Test {
public:
  using ParamType = ParamT;

  const ParamT &GetParam() const { return Param; }
  void setParam(const ParamT &P) { Param = P; }

private:
  ParamT Param{};
};

/// Registers \p Case, a subclass of \p Fixture, once for every value of
/// Fixture::grid() that \p Applies accepts. Every case of a suite is
/// created as a Fixture, so gtest sees one fixture class per suite.
template <typename Fixture, typename Case>
bool registerProperty(const char *Property,
                      bool (*Applies)(const typename Fixture::ParamType &),
                      const char *File, int Line) {
  for (const typename Fixture::ParamType &P : Fixture::grid()) {
    if (!Applies(P))
      continue;
    const std::string Name = std::string(Property) + "/" + Fixture::name(P);
    ::testing::RegisterTest(Fixture::Suite, Name.c_str(), nullptr,
                            ::testing::PrintToString(P).c_str(), File, Line,
                            [P]() -> Fixture * {
                              Case *Test = new Case;
                              Test->setParam(P);
                              return Test;
                            });
  }
  return true;
}

} // namespace alter

/// Defines a property of \p Fixture, run on every grid value \p Applies
/// accepts; the body follows like a TEST_P body.
#define ALTER_PROPERTY(Fixture, Property, Applies)                             \
  class Fixture##_##Property##_Property : public Fixture {                     \
    void TestBody() override;                                                  \
  };                                                                           \
  [[maybe_unused]] const bool Fixture##_##Property##_Registered =              \
      ::alter::registerProperty<Fixture, Fixture##_##Property##_Property>(     \
          #Property, Applies, __FILE__, __LINE__);                             \
  void Fixture##_##Property##_Property::TestBody()

#endif // ALTER_TESTS_PROPERTYTEST_H
