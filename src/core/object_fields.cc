#include "src/core/object_fields.h"

#include <cstdlib>

#include "src/util/strings.h"

namespace thor::core {

namespace {

// True when the content leaf sits under an emphasis or anchor element
// (within the object), marking title-like text.
bool IsEmphasized(const html::ArenaTree& tree, html::NodeId leaf,
                  html::NodeId object_root) {
  for (html::NodeId cur = tree.node(leaf).parent;
       cur != html::kInvalidNode && cur != object_root;
       cur = tree.node(cur).parent) {
    html::TagId tag = tree.node(cur).tag;
    if (tag == html::Tag::kA || tag == html::Tag::kB ||
        tag == html::Tag::kStrong || tag == html::Tag::kH1 ||
        tag == html::Tag::kH2 || tag == html::Tag::kH3 ||
        tag == html::Tag::kH4 || tag == html::Tag::kDt) {
      return true;
    }
  }
  return false;
}

// True when the leaf has an ancestor with tag `wanted` inside the object
// (including the object part itself).
bool UnderTag(const html::ArenaTree& tree, html::NodeId leaf,
              html::NodeId part, html::TagId wanted) {
  for (html::NodeId cur = leaf; cur != html::kInvalidNode;
       cur = tree.node(cur).parent) {
    if (tree.node(cur).is_tag() && tree.node(cur).tag == wanted) {
      return true;
    }
    if (cur == part) break;
  }
  return false;
}

// A <dt>/<th> leaf acts as a field label for the following value leaf —
// the definition-list / field-table idiom — unless it is linked text (a
// result listing's record title) or too long to be a label.
bool IsFieldLabelLeaf(const html::ArenaTree& tree, html::NodeId leaf,
                      html::NodeId part) {
  if (tree.node(leaf).text_size > 24) return false;
  if (UnderTag(tree, leaf, part, html::Tag::kA)) return false;
  return UnderTag(tree, leaf, part, html::Tag::kDt) ||
         UnderTag(tree, leaf, part, html::Tag::kTh);
}

bool ParsePrice(std::string_view text, double* value) {
  size_t pos = text.find('$');
  if (pos == std::string_view::npos || pos + 1 >= text.size()) return false;
  if (!IsAsciiDigit(text[pos + 1])) return false;
  *value = std::atof(std::string(text.substr(pos + 1)).c_str());
  return true;
}

bool ParseYear(std::string_view text, double* value) {
  // A standalone four-digit 19xx/20xx token (possibly parenthesized).
  for (size_t i = 0; i + 4 <= text.size(); ++i) {
    if (!IsAsciiDigit(text[i])) continue;
    if (i > 0 && IsAsciiDigit(text[i - 1])) continue;
    if (i + 4 < text.size() && IsAsciiDigit(text[i + 4])) {
      i += 3;
      continue;
    }
    int year = (text[i] - '0') * 1000 + (text[i + 1] - '0') * 100 +
               (text[i + 2] - '0') * 10 + (text[i + 3] - '0');
    if (year >= 1900 && year <= 2099) {
      *value = year;
      return true;
    }
    i += 3;
  }
  return false;
}

bool ParseRating(std::string_view text, double* value) {
  size_t star = text.find("star");
  if (star == std::string_view::npos) return false;
  // Scan backwards for the number before "star(s)".
  size_t end = star;
  while (end > 0 && IsAsciiSpace(text[end - 1])) --end;
  size_t begin = end;
  while (begin > 0 &&
         (IsAsciiDigit(text[begin - 1]) || text[begin - 1] == '.')) {
    --begin;
  }
  if (begin == end) return false;
  *value = std::atof(std::string(text.substr(begin, end - begin)).c_str());
  return true;
}

// Splits "Label: rest" when the prefix looks like a short label.
bool SplitLabeled(std::string_view text, std::string* label,
                  std::string* value) {
  size_t colon = text.find(':');
  if (colon == std::string_view::npos || colon == 0 || colon > 24) {
    return false;
  }
  for (size_t i = 0; i < colon; ++i) {
    if (!IsAsciiAlpha(text[i]) && text[i] != ' ') return false;
  }
  *label = std::string(StripAsciiWhitespace(text.substr(0, colon)));
  *value = std::string(StripAsciiWhitespace(text.substr(colon + 1)));
  return !label->empty() && !value->empty();
}

}  // namespace

const char* FieldTypeName(FieldType type) {
  switch (type) {
    case FieldType::kTitle:
      return "title";
    case FieldType::kPrice:
      return "price";
    case FieldType::kYear:
      return "year";
    case FieldType::kRating:
      return "rating";
    case FieldType::kLabeled:
      return "labeled";
    case FieldType::kText:
      return "text";
  }
  return "unknown";
}

std::vector<QaField> PartitionFields(const html::ArenaTree& tree,
                                     const ObjectSpan& object) {
  std::vector<QaField> fields;
  bool have_title = false;
  std::string pending_label;
  for (html::NodeId part : object.parts) {
    tree.ForEachInSubtree(part, [&](html::NodeId leaf) {
      const html::ArenaNode& n = tree.node(leaf);
      if (n.is_tag()) return;
      const std::string_view text = n.text();
      // Definition-list / field-table idiom: a plain dt/th leaf labels the
      // next leaf.
      if (pending_label.empty() && IsFieldLabelLeaf(tree, leaf, part)) {
        pending_label = text;
        return;
      }
      QaField field;
      field.value = text;
      std::string label;
      std::string value;
      if (!pending_label.empty()) {
        field.type = FieldType::kLabeled;
        field.label = std::move(pending_label);
        pending_label.clear();
        ParsePrice(text, &field.number) || ParseRating(text, &field.number) ||
            ParseYear(text, &field.number);
      } else if (!have_title && IsEmphasized(tree, leaf, part)) {
        field.type = FieldType::kTitle;
        have_title = true;
      } else if (SplitLabeled(text, &label, &value)) {
        field.type = FieldType::kLabeled;
        field.label = std::move(label);
        field.value = std::move(value);
      } else if (ParsePrice(text, &field.number)) {
        field.type = FieldType::kPrice;
      } else if (ParseRating(text, &field.number)) {
        field.type = FieldType::kRating;
      } else if (ParseYear(text, &field.number)) {
        field.type = FieldType::kYear;
      }
      fields.push_back(std::move(field));
    });
  }
  // A dangling label with no value leaf is still content.
  if (!pending_label.empty()) {
    QaField field;
    field.value = std::move(pending_label);
    fields.push_back(std::move(field));
  }
  // Title promotion for label/value records: a field labeled Title or Name
  // carries the record's identity.
  if (!have_title) {
    for (QaField& field : fields) {
      if (field.type == FieldType::kLabeled &&
          (EqualsIgnoreAsciiCase(field.label, "title") ||
           EqualsIgnoreAsciiCase(field.label, "name"))) {
        field.type = FieldType::kTitle;
        have_title = true;
        break;
      }
    }
  }
  // Fallback title: the first field of an object with no emphasized text.
  if (!have_title && !fields.empty() &&
      fields.front().type == FieldType::kText) {
    fields.front().type = FieldType::kTitle;
  }
  return fields;
}

std::vector<std::vector<QaField>> PartitionAllFields(
    const html::ArenaTree& tree, const std::vector<ObjectSpan>& objects) {
  std::vector<std::vector<QaField>> all;
  all.reserve(objects.size());
  for (const ObjectSpan& object : objects) {
    all.push_back(PartitionFields(tree, object));
  }
  return all;
}

}  // namespace thor::core
