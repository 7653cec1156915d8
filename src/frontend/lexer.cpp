#include "frontend/lexer.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>

#include "support/diagnostics.hpp"

namespace slpwlo {

std::string to_string(TokKind kind) {
    switch (kind) {
        case TokKind::Identifier: return "identifier";
        case TokKind::Number: return "number";
        case TokKind::KwKernel: return "'kernel'";
        case TokKind::KwInput: return "'input'";
        case TokKind::KwParam: return "'param'";
        case TokKind::KwOutput: return "'output'";
        case TokKind::KwBuffer: return "'buffer'";
        case TokKind::KwVar: return "'var'";
        case TokKind::KwLoop: return "'loop'";
        case TokKind::KwRange: return "'range'";
        case TokKind::KwUnroll: return "'unroll'";
        case TokKind::LBrace: return "'{'";
        case TokKind::RBrace: return "'}'";
        case TokKind::LBracket: return "'['";
        case TokKind::RBracket: return "']'";
        case TokKind::LParen: return "'('";
        case TokKind::RParen: return "')'";
        case TokKind::Comma: return "','";
        case TokKind::Semicolon: return "';'";
        case TokKind::Assign: return "'='";
        case TokKind::Plus: return "'+'";
        case TokKind::Minus: return "'-'";
        case TokKind::Star: return "'*'";
        case TokKind::Slash: return "'/'";
        case TokKind::DotDot: return "'..'";
        case TokKind::End: return "end of input";
    }
    return "<token>";
}

std::vector<Token> lex(const std::string& source) {
    static const std::map<std::string, TokKind> keywords{
        {"kernel", TokKind::KwKernel}, {"input", TokKind::KwInput},
        {"param", TokKind::KwParam},   {"output", TokKind::KwOutput},
        {"buffer", TokKind::KwBuffer}, {"var", TokKind::KwVar},
        {"loop", TokKind::KwLoop},     {"range", TokKind::KwRange},
        {"unroll", TokKind::KwUnroll},
    };

    std::vector<Token> tokens;
    int line = 1, column = 1;
    size_t i = 0;
    auto advance = [&](size_t count = 1) {
        for (size_t k = 0; k < count && i < source.size(); ++k, ++i) {
            if (source[i] == '\n') {
                line++;
                column = 1;
            } else {
                column++;
            }
        }
    };
    // Where the token being lexed starts: identifiers and numbers are
    // pushed after they are consumed, so `line`/`column` are past them.
    int token_line = 1, token_column = 1;
    auto push = [&](TokKind kind, std::string text, double number = 0.0) {
        Token t;
        t.kind = kind;
        t.text = std::move(text);
        t.number = number;
        t.line = token_line;
        t.column = token_column;
        tokens.push_back(std::move(t));
    };

    while (i < source.size()) {
        const char c = source[i];
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            advance();
            continue;
        }
        if (c == '#' || (c == '/' && i + 1 < source.size() &&
                         source[i + 1] == '/')) {
            while (i < source.size() && source[i] != '\n') advance();
            continue;
        }
        token_line = line;
        token_column = column;
        if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
            size_t start = i;
            while (i < source.size() &&
                   (std::isalnum(static_cast<unsigned char>(source[i])) != 0 ||
                    source[i] == '_')) {
                advance();
            }
            const std::string word = source.substr(start, i - start);
            const auto kw = keywords.find(word);
            if (kw != keywords.end()) {
                push(kw->second, word);
            } else {
                push(TokKind::Identifier, word);
            }
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
            const size_t start = i;
            while (i < source.size()) {
                const char d = source[i];
                if (std::isdigit(static_cast<unsigned char>(d)) != 0) {
                    advance();
                } else if (d == '.' && i + 1 < source.size() &&
                           source[i + 1] != '.') {
                    // '.' followed by another '.' is the range operator.
                    advance();
                } else if ((d == 'e' || d == 'E') && i + 1 < source.size()) {
                    advance();
                    if (i < source.size() &&
                        (source[i] == '+' || source[i] == '-')) {
                        advance();
                    }
                } else {
                    break;
                }
            }
            const std::string text = source.substr(start, i - start);
            // strtod with both checks, not std::stod: a literal beyond a
            // double's range or with a dangling exponent is a located
            // parse error, not an exception the caller cannot place.
            errno = 0;
            char* end = nullptr;
            const double value = std::strtod(text.c_str(), &end);
            if (errno == ERANGE) {
                throw ParseError("numeric literal `" + text +
                                     "` is out of the range of a double",
                                 token_line, token_column);
            }
            if (end != text.c_str() + text.size()) {
                throw ParseError("malformed numeric literal `" + text + "`",
                                 token_line, token_column);
            }
            push(TokKind::Number, text, value);
            continue;
        }
        switch (c) {
            case '{': push(TokKind::LBrace, "{"); advance(); break;
            case '}': push(TokKind::RBrace, "}"); advance(); break;
            case '[': push(TokKind::LBracket, "["); advance(); break;
            case ']': push(TokKind::RBracket, "]"); advance(); break;
            case '(': push(TokKind::LParen, "("); advance(); break;
            case ')': push(TokKind::RParen, ")"); advance(); break;
            case ',': push(TokKind::Comma, ","); advance(); break;
            case ';': push(TokKind::Semicolon, ";"); advance(); break;
            case '=': push(TokKind::Assign, "="); advance(); break;
            case '+': push(TokKind::Plus, "+"); advance(); break;
            case '-': push(TokKind::Minus, "-"); advance(); break;
            case '*': push(TokKind::Star, "*"); advance(); break;
            case '/': push(TokKind::Slash, "/"); advance(); break;
            case '.':
                if (i + 1 < source.size() && source[i + 1] == '.') {
                    push(TokKind::DotDot, "..");
                    advance(2);
                    break;
                }
                throw ParseError("stray '.'", line, column);
            default:
                throw ParseError(std::string("illegal character '") + c + "'",
                                 line, column);
        }
    }
    token_line = line;
    token_column = column;
    push(TokKind::End, "");
    return tokens;
}

}  // namespace slpwlo
