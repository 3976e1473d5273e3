#ifndef THOR_SERVE_TEMPLATE_CODEC_H_
#define THOR_SERVE_TEMPLATE_CODEC_H_

#include <string>
#include <string_view>

#include "src/core/template_registry.h"
#include "src/util/status.h"

namespace thor::serve {

/// \brief Versioned, checksummed binary wire format for template registries.
///
/// The one persisted template format ("THORTPL1"): the TemplateStore's
/// generation files and `thorcli analyze`/`apply`/`dump` files alike. It
/// parses in microseconds and round-trips doubles bit-exactly
/// (max_distance / min_stable_match / tag weights are stored as raw
/// IEEE-754 bits, never through decimal formatting).
///
/// Layout (all integers little-endian, fixed width):
///
///   magic      8 bytes  "THORTPL1"
///   version    u32      currently 1
///   count      u32      number of templates
///   template records, each:
///     path_symbols            str     (u32 length + bytes)
///     prototype.path_symbols  str
///     prototype.fanout        i32
///     prototype.depth         i32
///     prototype.num_nodes     i32
///     support                 i32
///     max_distance            u64     IEEE-754 double bits
///     min_stable_match        u64     IEEE-754 double bits
///     stable_count            u32
///       stable entries:  tag name str + weight u64 (double bits)
///     known_count             u32
///       known entries:   tag name str + weight u64 (double bits)
///   checksum   u64      FNV-1a 64 over every preceding byte
///
/// Tag dimensions are stored by *name*, so blobs are portable across
/// processes with different tag-intern orders.
///
/// Decode is hostile-input safe: any truncated prefix or corrupted byte
/// yields a typed ParseError (the trailing checksum is verified before any
/// field is parsed), never a crash or a partially-built registry.

/// Encodes the registry as a THORTPL1 blob.
std::string EncodeTemplates(const core::TemplateRegistry& registry);

/// Decodes a THORTPL1 blob. ParseError on bad magic, unsupported version,
/// checksum mismatch, or any structural truncation.
Result<core::TemplateRegistry> DecodeTemplates(std::string_view blob);

}  // namespace thor::serve

#endif  // THOR_SERVE_TEMPLATE_CODEC_H_
