#pragma once

#include <string_view>

#include "common/status.hpp"
#include "microc/bytecode.hpp"
#include "microc/lexer.hpp"

namespace sdvm::microc {

/// Compiles one MicroC source unit to bytecode. This is the "compile on the
/// fly" operation a site performs when it receives microthread source for a
/// platform it has no binary for. Pipeline: lex -> parse -> typecheck ->
/// emit (the typed AST is written straight to wire bytecode). Returns
/// kInvalidArgument with a line:column diagnostic on any lex/parse/type
/// error; when `error_out` is non-null the structured error (message +
/// position) is stored there too, so tools can render caret snippets.
[[nodiscard]] Result<Program> compile(std::string_view source,
                                      std::string name,
                                      CompileError* error_out = nullptr);

}  // namespace sdvm::microc
