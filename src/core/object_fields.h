#ifndef THOR_CORE_OBJECT_FIELDS_H_
#define THOR_CORE_OBJECT_FIELDS_H_

#include <string>
#include <vector>

#include "src/core/object_partition.h"
#include "src/html/arena_tree.h"

namespace thor::core {

/// Recognized value types for extracted fields.
enum class FieldType {
  kTitle,    ///< the object's primary label (first emphasized/linked text)
  kPrice,    ///< $12.34-style currency amount
  kYear,     ///< a plausible four-digit year
  kRating,   ///< "4.2 stars"-style score
  kLabeled,  ///< explicit "Label: value" pair
  kText,     ///< anything else
};

const char* FieldTypeName(FieldType type);

/// One attribute of a QA-Object.
struct QaField {
  FieldType type = FieldType::kText;
  /// Label for kLabeled fields ("Artist", "Brand"); empty otherwise.
  std::string label;
  std::string value;
  /// Parsed numeric value for kPrice / kYear / kRating; 0 otherwise.
  double number = 0.0;
};

/// \brief Stage-3 refinement: partitions one QA-Object into typed fields.
///
/// Walks the object's content leaves in document order and applies the
/// segment heuristics the THOR technical report sketches: emphasized or
/// linked leading text is the title; "Label: value" segments become
/// labeled pairs; currency, year and rating patterns are typed; remaining
/// prose is kText.
std::vector<QaField> PartitionFields(const html::ArenaTree& tree,
                                     const ObjectSpan& object);

/// Convenience over all objects of a pagelet.
std::vector<std::vector<QaField>> PartitionAllFields(
    const html::ArenaTree& tree, const std::vector<ObjectSpan>& objects);

}  // namespace thor::core

#endif  // THOR_CORE_OBJECT_FIELDS_H_
