#ifndef THOR_TESTS_ORACLE_REFERENCE_LOCATE_H_
#define THOR_TESTS_ORACLE_REFERENCE_LOCATE_H_

#include "src/core/template_registry.h"
#include "src/html/tree_read.h"

namespace thor::core {

/// \brief The reference Locate, the test oracle `HotExtractor::Locate` is
/// held to bit for bit: the same rules over `ShapeQuad`s and the
/// `SparseVector` tag counts. Instantiated for the oracle's `TagTree`,
/// where it is also the denominator of bench_micro's ratio gate.
template <html::ReadableTree Tree>
TemplateRegistry::Located LocateDetailed(const TemplateRegistry& registry,
                                         const Tree& tree);

}  // namespace thor::core

#endif  // THOR_TESTS_ORACLE_REFERENCE_LOCATE_H_
