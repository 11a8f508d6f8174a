//===- workloads/Genome.h - STAMP genome segment dedup ----------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first step of the STAMP genome-sequencing benchmark: remove
/// duplicate DNA segments by inserting every segment into a shared hash
/// set. Duplicates dominate (segments are oversampled reads of one
/// genome), so writes — bucket-head link-ins of freshly allocated nodes —
/// are rare, and the loop parallelizes under TLS, OutOfOrder, and
/// StaleReads alike (Table 3). StaleReads wins on performance because the
/// bucket-chain probes need no read instrumentation (Figure 6; Table 4
/// shows 16 words/txn under StaleReads vs 89 under OutOfOrder).
///
/// Segments are 2-bit-packed 128-mers (four uint64 words, like the
/// suite's string segments); nodes come from the ALTER allocator so
/// fork-based execution can ship them.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_WORKLOADS_GENOME_H
#define ALTER_WORKLOADS_GENOME_H

#include "workloads/Workload.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace alter {

/// Duplicate-segment removal via a shared chained hash table.
class GenomeWorkload : public Workload {
public:
  std::string name() const override { return "genome"; }
  std::string description() const override {
    return "Genome sequencing step 1: remove duplicate segments via a "
           "shared hash set";
  }
  std::string suite() const override { return "STAMP"; }

  size_t numInputs() const override { return 2; }
  std::string inputName(size_t Index) const override {
    return Index == 0 ? "64k segments" : "256k segments";
  }
  void setUp(size_t Index) override;

  void run(LoopRunner &Runner) override;

  std::vector<double> outputSignature() const override;
  bool validate(const std::vector<double> &Reference) const override;

  std::optional<Annotation> paperAnnotation() const override {
    return parseAnnotation("[StaleReads]");
  }
  int defaultChunkFactor() const override { return 512; } // Table 4: 4096

  AlterAllocator *allocator() override { return Alloc.get(); }

  /// Unique segments found (counted by walking the table afterwards).
  uint64_t uniqueCount() const;

public:
  /// A 2-bit-packed 128-character segment.
  using Segment = std::array<uint64_t, 4>;

private:
  struct Node {
    Segment Key;
    Node *Next;
  };

  std::vector<Segment> Segments;
  std::vector<Node *> Buckets;
  std::unique_ptr<AlterAllocator> Alloc;
};

} // namespace alter

#endif // ALTER_WORKLOADS_GENOME_H
