// Tables (Def. 3.2): bags (multisets) of records sharing one field set.
// Clause semantics in both Cypher (Section 3.2) and Seraph (Fig. 7) are
// functions Table → Table; the bag operations here (union, difference,
// distinct) implement those semantics, and bag difference in particular
// implements the ON ENTERING / ON EXITING report policies.
#ifndef SERAPH_TABLE_TABLE_H_
#define SERAPH_TABLE_TABLE_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "table/record.h"

namespace seraph {

class Table {
 public:
  // An empty table with no fields and no rows.
  Table() = default;

  explicit Table(std::set<std::string> fields)
      : fields_(std::move(fields)) {}

  // T(): the table containing the single empty record — the initial input
  // of query evaluation (Section 3.2).
  static Table Unit() {
    Table t;
    t.rows_.emplace_back();
    return t;
  }

  const std::set<std::string>& fields() const { return fields_; }
  const std::vector<Record>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  // Appends a row. The row's domain must equal the table's field set; in
  // debug use this is checked.
  void Append(Record row);

  // Appends without the domain check (hot path for the executor, which
  // constructs domains correctly by design).
  void AppendUnchecked(Record row) { rows_.push_back(std::move(row)); }

  // Bag union: concatenation (UNION ALL).
  static Table BagUnion(const Table& a, const Table& b);

  // Bag difference a ∖ b: each record's multiplicity becomes
  // max(0, mult_a − mult_b). This is the paper's "bag difference of two
  // tables" and the delta underlying ON ENTERING.
  static Table BagDifference(const Table& a, const Table& b);

  // Set-semantics duplicate elimination (UNION / DISTINCT), preserving
  // first-occurrence order.
  Table Distinct() const;

  // Keeps only `names` in every record (names absent from a record are
  // simply not produced).
  Table Project(const std::set<std::string>& names) const;

  // Stable sort by `cmp` (used by ORDER BY and for deterministic output).
  void SortRows(
      const std::function<bool(const Record&, const Record&)>& cmp);

  // Sorts rows by their canonical value order — gives a deterministic
  // rendering for golden tests.
  Table Canonicalized() const;

  // Multiplicity of `row` in the bag.
  size_t Count(const Record& row) const;

  // Bag equality: same fields and same record multiplicities.
  friend bool operator==(const Table& a, const Table& b);
  friend bool operator!=(const Table& a, const Table& b) { return !(a == b); }

  // Renders an aligned ASCII table with `columns` in the given order (the
  // shape of the paper's Tables 2/4/5/6).
  std::string ToAsciiTable(const std::vector<std::string>& columns) const;

  std::string ToString() const;

 private:
  std::set<std::string> fields_;
  std::vector<Record> rows_;
};

}  // namespace seraph

#endif  // SERAPH_TABLE_TABLE_H_
