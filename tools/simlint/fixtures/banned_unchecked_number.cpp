// Fixture for the banned-unchecked-number rule. Linted with pretend path
// "bench/banned_unchecked_number.cpp"; each marked line must fire.
#include <cstdlib>
#include <string>

#include "util/parse.hpp"

std::size_t bad_reps(const char* text) {
  return static_cast<std::size_t>(std::atoll(text));  // VIOLATION banned-unchecked-number
}

int bad_unqualified(const char* text) {
  return atoi(text) + static_cast<int>(atol(text));  // VIOLATION banned-unchecked-number
}

unsigned long long bad_strings(const std::string& text) {
  return std::stoull(text) + std::stoul(text);  // VIOLATION banned-unchecked-number
}

long double bad_fractions(const std::string& text) {
  return std::stod(text) + std::stof(text) + std::stold(text);  // VIOLATION banned-unchecked-number
}

double bad_unqualified_fraction(const std::string& text) {
  return stod(text);  // VIOLATION banned-unchecked-number
}

std::size_t allowed(const char* text) {
  return static_cast<std::size_t>(std::atoll(text));  // simlint:allow(banned-unchecked-number) fixture suppression
}

double allowed_fraction(const std::string& text) {
  return std::stod(text);  // simlint:allow(banned-unchecked-number) fixture suppression
}

// The checked parser, look-alike names, member calls (Parser is some
// class with an atoi member) and mentions of atoi() in comments or
// "std::stoull(" in strings must not fire.
struct Parser;
std::size_t good(const char* text) {
  return mlcr::util::parse_count(text, "--reps");
}
double good_fraction(const char* text) {
  return mlcr::util::parse_number(text, "--pool");
}
int my_atoi(const char* text);
double my_stod(const char* text);
int member(const Parser& p, const Parser* q, const char* text) {
  return p.atoi(text) + q->atoi(text) + my_atoi(text) +
         static_cast<int>(p.stod(text) + my_stod(text));
}
const char* kNote = "std::stoull(text) wraps, std::stod(text) takes nan";
