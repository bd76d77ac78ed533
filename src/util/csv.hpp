// Minimal CSV writer used to export power traces, feature traces, and
// figure/table series for external plotting.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

namespace wavm3::util {

/// Streams rows of comma-separated values with proper quoting.
///
/// Example:
///   CsvWriter csv(out);
///   csv.header({"time_s", "power_w"});
///   csv.row_text({"1", "431.2"});
class CsvWriter {
 public:
  /// Writes to a caller-owned stream; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Writes the header row. Call at most once, before any data row.
  void header(const std::vector<std::string>& names);

  /// Writes one row of preformatted cells (quoted as needed).
  void row_text(const std::vector<std::string>& cells);

  /// Number of data rows written so far (header excluded).
  std::size_t rows_written() const { return rows_; }

 private:
  void write_cells(const std::vector<std::string>& cells);
  static std::string quote(const std::string& cell);

  std::ostream* out_;
  std::size_t rows_ = 0;
  bool header_written_ = false;
};

/// Parses one CSV line into cells, honouring double-quote quoting and
/// escaped quotes ("" -> "). The line must not contain the record
/// separator (callers split on '\n' first).
std::vector<std::string> parse_csv_line(const std::string& line);

/// Reads a whole CSV file: first row into `header`, the rest into
/// `rows`. Returns false when the file cannot be opened or is empty.
/// Ragged rows are rejected via util::ContractError.
bool read_csv_file(const std::string& path, std::vector<std::string>& header,
                   std::vector<std::vector<std::string>>& rows);

}  // namespace wavm3::util
