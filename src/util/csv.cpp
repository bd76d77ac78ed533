#include "util/csv.hpp"

#include "util/error.hpp"

namespace wavm3::util {

void CsvWriter::header(const std::vector<std::string>& names) {
  WAVM3_REQUIRE(!header_written_ && rows_ == 0, "header must be written first and only once");
  write_cells(names);
  header_written_ = true;
}

void CsvWriter::row_text(const std::vector<std::string>& cells) {
  write_cells(cells);
  ++rows_;
}

void CsvWriter::write_cells(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) (*out_) << ',';
    (*out_) << quote(cells[i]);
  }
  (*out_) << '\n';
}

std::string CsvWriter::quote(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

bool read_csv_file(const std::string& path, std::vector<std::string>& header,
                   std::vector<std::vector<std::string>>& rows) {
  std::ifstream in(path);
  if (!in) return false;
  header.clear();
  rows.clear();
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto cells = parse_csv_line(line);
    if (first) {
      header = std::move(cells);
      first = false;
    } else {
      WAVM3_REQUIRE(cells.size() == header.size(), "ragged CSV row in " + path);
      rows.push_back(std::move(cells));
    }
  }
  return !header.empty();
}

}  // namespace wavm3::util
