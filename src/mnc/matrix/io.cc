#include "mnc/matrix/io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>
#include <system_error>
#include <type_traits>

#include "mnc/matrix/coo_matrix.h"
#include "mnc/matrix/mm_header.h"
#include "mnc/util/fail_point.h"

namespace mnc {

namespace {

// Entries reserved up front when the stream size is unknown (non-seekable);
// beyond this the vectors grow geometrically, paid for by real input.
constexpr int64_t kUnknownSizeReserveCap = int64_t{1} << 20;

// Whitespace as operator>> skips it in the classic locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Reads the next number of an entry line the way `std::istream >> value`
// does in the classic locale, without building a stream per line: skips
// leading whitespace, accepts a leading '+', stops at the first character
// that cannot continue the number, and fails where extraction would (no
// digits, integer overflow, a double that overflows, inf/nan spellings, an
// exponent marker without digits). A double that underflows reads as
// strtod rounds it, as the stream does.
template <typename T>
bool ParseField(const char*& p, const char* end, T& value) {
  while (p != end && IsSpace(*p)) ++p;
  const char* q = p;
  if (q != end && *q == '+') {
    ++q;
    if (q != end && (*q == '+' || *q == '-')) return false;
  }
  std::from_chars_result r;
  if constexpr (std::is_integral_v<T>) {
    r = std::from_chars(q, end, value);
    if (r.ec != std::errc()) return false;
  } else {
    const char* digits = q != end && *q == '-' ? q + 1 : q;
    if (digits == end || !(std::isdigit(static_cast<unsigned char>(*digits)) ||
                           *digits == '.')) {
      return false;
    }
    r = std::from_chars(q, end, value);
    if (r.ec == std::errc::result_out_of_range) {
      value = std::strtod(std::string(q, r.ptr).c_str(), nullptr);
      if (std::isinf(value)) return false;
    } else if (r.ec != std::errc()) {
      return false;
    }
    if (r.ptr != end && (*r.ptr == 'e' || *r.ptr == 'E') &&
        std::find_if(q, r.ptr, [](char c) { return c == 'e' || c == 'E'; }) ==
            r.ptr) {
      return false;
    }
  }
  p = r.ptr;
  return true;
}

}  // namespace

void WriteMatrixMarket(const CsrMatrix& m, std::ostream& os) {
  os.precision(17);  // round-trip-safe FP64 formatting
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << m.rows() << " " << m.cols() << " " << m.NumNonZeros() << "\n";
  for (int64_t i = 0; i < m.rows(); ++i) {
    const auto idx = m.RowIndices(i);
    const auto val = m.RowValues(i);
    for (size_t k = 0; k < idx.size(); ++k) {
      os << (i + 1) << " " << (idx[k] + 1) << " " << val[k] << "\n";
    }
  }
}

Status WriteMatrixMarketFile(const CsrMatrix& m, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  WriteMatrixMarket(m, out);
  if (!out) {
    return Status::DataLoss("stream write failure writing " + path);
  }
  return Status::Ok();
}

StatusOr<CsrMatrix> ReadMatrixMarket(std::istream& is) {
  if (MncFailPointArmed("mm.read_fail")) {
    return Status::DataLoss(
        "fail point mm.read_fail: simulated short read of Matrix-Market "
        "stream");
  }

  // Banner, comments, size line, and every pre-allocation sanity check
  // (dimension bounds, nnz vs rows*cols, symmetric 2*nnz overflow, bytes
  // remaining) live in the shared header parser, which the streaming
  // ingestion reader (mnc/ingest) uses too.
  MNC_ASSIGN_OR_RETURN(const MatrixMarketHeader header,
                       ReadMatrixMarketHeader(is));
  const int64_t rows = header.rows;
  const int64_t cols = header.cols;
  const int64_t nnz = header.nnz;
  int64_t line_no = header.line_no;

  CooMatrix coo(rows, cols);
  const int64_t logical_nnz = header.LogicalNnz();
  const int64_t remaining = RemainingStreamBytes(is);
  coo.Reserve(remaining >= 0 ? logical_nnz
                             : std::min(logical_nnz, kUnknownSizeReserveCap));
  std::string line;
  for (int64_t e = 0; e < nnz; ++e) {
    if (!std::getline(is, line)) {
      return Status::DataLoss("unexpected end of stream at entry " +
                              std::to_string(e + 1) + " of " +
                              std::to_string(nnz) + " (line " +
                              std::to_string(line_no + 1) + ")");
    }
    ++line_no;
    const char* p = line.data();
    const char* const end = p + line.size();
    int64_t i = 0;
    int64_t j = 0;
    double v = 1.0;
    if (!ParseField(p, end, i) || !ParseField(p, end, j)) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": malformed entry \"" +
                                     line.substr(0, 40) + "\"");
    }
    if (!header.pattern && !ParseField(p, end, v)) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": entry is missing its value: \"" +
                                     line.substr(0, 40) + "\"");
    }
    if (i < 1 || i > rows || j < 1 || j > cols) {
      return Status::OutOfRange(
          "line " + std::to_string(line_no) + ": coordinate (" +
          std::to_string(i) + ", " + std::to_string(j) +
          ") outside the declared " + std::to_string(rows) + " x " +
          std::to_string(cols) + " shape");
    }
    coo.Add(i - 1, j - 1, v);
    if (header.symmetric && i != j) coo.Add(j - 1, i - 1, v);
  }
  return coo.ToCsr();
}

StatusOr<CsrMatrix> ReadMatrixMarketFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open Matrix-Market file " + path);
  }
  return ReadMatrixMarket(in).AddContext("reading " + path);
}

}  // namespace mnc
