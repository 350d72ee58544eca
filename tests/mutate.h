// Seeded mutations of a text input, shared by the parsers' hostile-input
// tests: each mutant must either fail to load with a Status or load into a
// value every consumer serves.

#ifndef DQ_TESTS_MUTATE_H_
#define DQ_TESTS_MUTATE_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"

namespace dq {

/// \brief One seeded mutation of `text`: a bit flip, a deleted byte run, a
/// truncation, one of `tokens` in place of a word (a run of bytes between
/// two of `separators`), or a duplicated or deleted line.
inline void Mutate(Rng* rng, std::string* text,
                   const std::vector<std::string_view>& tokens,
                   std::string_view separators = " \n") {
  if (text->empty()) return;
  const auto pick = [&](size_t n) {
    return static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  const size_t pos = pick(text->size());
  const auto line_start = [&](size_t at) {
    const size_t nl = at == 0 ? std::string::npos : text->rfind('\n', at - 1);
    return nl == std::string::npos ? 0 : nl + 1;
  };
  const auto line_end = [&](size_t at) {
    const size_t nl = text->find('\n', at);
    return nl == std::string::npos ? text->size() : nl + 1;
  };
  switch (rng->UniformInt(0, 5)) {
    case 0:  // bit flip
      (*text)[pos] = static_cast<char>((*text)[pos] ^ (1 << pick(8)));
      break;
    case 1:  // byte-run deletion
      text->erase(pos, 1 + pick(16));
      break;
    case 2:  // truncation
      text->resize(pos);
      break;
    case 3: {  // token swap
      size_t begin = pos;
      while (begin > 0 &&
             separators.find((*text)[begin - 1]) == std::string_view::npos) {
        --begin;
      }
      const size_t end =
          std::min(text->find_first_of(separators, pos), text->size());
      const std::string_view token = tokens[pick(tokens.size())];
      text->replace(begin, end - begin, token.data(), token.size());
      break;
    }
    case 4: {  // line duplication
      const size_t begin = line_start(pos);
      text->insert(begin, text->substr(begin, line_end(pos) - begin));
      break;
    }
    default: {  // line deletion
      const size_t begin = line_start(pos);
      text->erase(begin, line_end(pos) - begin);
      break;
    }
  }
}

}  // namespace dq

#endif  // DQ_TESTS_MUTATE_H_
