#include "base/csv.hh"

#include <fstream>
#include <sstream>

#include "base/json.hh"
#include "base/logging.hh"

namespace acdse
{

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream is(line);
    while (std::getline(is, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.emplace_back();
    return cells;
}

bool
readCsv(const std::string &path, CsvFile &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    out.header.clear();
    out.rows.clear();
    std::string line;
    if (!std::getline(in, line))
        return false;
    out.header = splitCsvLine(line);
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        auto cells = splitCsvLine(line);
        if (cells.size() != out.header.size())
            return false;
        out.rows.push_back(std::move(cells));
    }
    return true;
}

namespace
{

/** The CSV text of @p file: a header line, then one line per row. */
void
formatCsv(std::ostream &os, const CsvFile &file)
{
    auto write_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            if (i + 1 < row.size())
                os << ',';
        }
        os << '\n';
    };
    write_row(file.header);
    for (const auto &row : file.rows)
        write_row(row);
}

} // namespace

void
writeCsv(const std::string &path, const CsvFile &file)
{
    std::ofstream os(path);
    if (!os)
        panic("cannot open '", path, "' for writing");
    formatCsv(os, file);
    if (!os)
        panic("failed while writing '", path, "'");
}

void
writeCsvAtomic(const std::string &path, const CsvFile &file)
{
    std::ostringstream os;
    formatCsv(os, file);
    writeTextAtomic(path, os.str());
}

} // namespace acdse
