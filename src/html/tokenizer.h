#ifndef THOR_HTML_TOKENIZER_H_
#define THOR_HTML_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace thor::html {

/// One name="value" attribute from a start tag. Names are lowercased;
/// values are entity-decoded.
struct Attribute {
  std::string name;
  std::string value;
};

/// Kinds of tokens the tokenizer emits.
enum class TokenKind {
  kStartTag,
  kEndTag,
  kText,
  kComment,
  kDoctype,
  kEndOfInput,
};

/// A single lexical token of an HTML document.
struct Token {
  TokenKind kind = TokenKind::kEndOfInput;
  /// Lowercased tag name for kStartTag/kEndTag.
  std::string name;
  /// Entity-decoded character data for kText; raw data for kComment/kDoctype.
  std::string text;
  std::vector<Attribute> attributes;
  /// True for <tag ... /> style start tags.
  bool self_closing = false;
  /// Byte offset of the token start in the original input (diagnostics).
  size_t offset = 0;
};

/// \brief Error-tolerant HTML tokenizer.
///
/// Follows the pragmatic subset of the HTML5 tokenization rules that the
/// paper's corpus requires: start/end tags with quoted, unquoted and
/// valueless attributes; comments (including bogus comments like `<!foo>`);
/// doctypes; raw-text elements (script/style/textarea/title) whose content
/// is emitted as a single text token; entity decoding in text and attribute
/// values. Never fails: garbage bytes degrade into text, matching how
/// browsers and HTML Tidy behave.
class Tokenizer {
 public:
  /// The referenced input must outlive the tokenizer.
  explicit Tokenizer(std::string_view input) : input_(input) {}

  /// Produces the next token. Returns false (and sets kEndOfInput) when the
  /// input is exhausted. Text tokens are maximal runs.
  bool Next(Token* token);

  /// Convenience: tokenizes the whole input.
  static std::vector<Token> TokenizeAll(std::string_view input);

  /// Bytes consumed so far. After a raw-text element's start tag this is
  /// already past its payload, which the next Next() returns.
  size_t position() const { return pos_; }

 private:
  // Lexes a markup construct starting at '<'. Returns true if a token was
  // produced; false means the '<' was literal text.
  bool LexMarkup(Token* token);
  void LexComment(Token* token);
  void LexBogusComment(Token* token);
  void LexDoctype(Token* token);
  void LexEndTag(Token* token);
  void LexStartTag(Token* token);
  void LexAttributes(Token* token);
  // After a raw-text start tag: consume everything until the matching close
  // tag and stash it; the next Next() call returns it as a text token.
  void EnterRawText(std::string_view tag_name);

  std::string_view input_;
  size_t pos_ = 0;
  // Pending raw-text content (script/style/...) to emit before resuming.
  std::string pending_raw_text_;
  bool has_pending_raw_text_ = false;
};

}  // namespace thor::html

#endif  // THOR_HTML_TOKENIZER_H_
