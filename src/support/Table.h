//===- support/Table.h - Text table and CSV rendering ----------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Column-aligned text tables and CSV emission for the benchmark harness.
/// Every paper table/figure binary prints its rows through this class so the
/// output format is uniform and machine-parseable.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_SUPPORT_TABLE_H
#define ALTER_SUPPORT_TABLE_H

#include <cstdio>
#include <string>
#include <vector>

namespace alter {

/// An in-memory table with a header row; renders as aligned text or CSV.
class TextTable {
public:
  /// Creates a table whose header is \p Header. Every later row must have
  /// the same number of cells.
  explicit TextTable(std::vector<std::string> Header);

  /// Appends a data row.
  void addRow(std::vector<std::string> Row);

  /// Returns cell (Row, Col) of the data rows.
  const std::string &cell(size_t Row, size_t Col) const;

  /// Renders the table with aligned columns and a separator line.
  std::string renderText() const;

  /// Renders the table as CSV (header first); cells containing commas or
  /// quotes are quoted.
  std::string renderCsv() const;

  /// Convenience: writes renderText() to \p Out (defaults to stdout).
  void printText(std::FILE *Out = stdout) const;

  /// Writes renderCsv() to the file at \p Path. Aborts on I/O failure.
  void writeCsv(const std::string &Path) const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace alter

#endif // ALTER_SUPPORT_TABLE_H
