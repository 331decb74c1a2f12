#include "src/stats/table.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "src/core/contracts.h"

namespace levy::stats {

text_table::text_table(std::vector<std::string> header) : header_(std::move(header)) {
    LEVY_PRECONDITION(!(header_.empty()), "text_table: empty header");
}

void text_table::add_row(std::vector<std::string> cells) {
    LEVY_PRECONDITION(cells.size() == header_.size(), "text_table: row width does not match header");
    rows_.push_back({std::move(cells)});
}

void text_table::add_separator() { rows_.push_back({}); }

std::size_t text_table::rows() const noexcept { return rows_.size(); }

std::vector<std::vector<std::string>> text_table::cell_rows() const {
    std::vector<std::vector<std::string>> out;
    out.reserve(rows_.size());
    for (const auto& r : rows_) {
        if (!r.cells.empty()) out.push_back(r.cells);
    }
    return out;
}

namespace {
std::function<void(const text_table&)>& print_observer() {
    static std::function<void(const text_table&)> f;
    return f;
}
}  // namespace

void set_table_print_observer(std::function<void(const text_table&)> observer) {
    print_observer() = std::move(observer);
}

void text_table::print(std::ostream& os) const {
    if (const auto& obs = print_observer()) obs(*this);
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& r : rows_) {
        for (std::size_t c = 0; c < r.cells.size(); ++c) {
            width[c] = std::max(width[c], r.cells[c].size());
        }
    }
    const auto print_line = [&] {
        os << '+';
        for (std::size_t w : width) os << std::string(w + 2, '-') << '+';
        os << '\n';
    };
    const auto print_cells = [&](const std::vector<std::string>& cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << ' ' << std::setw(static_cast<int>(width[c])) << std::right << cells[c] << " |";
        }
        os << '\n';
    };
    print_line();
    print_cells(header_);
    print_line();
    // A separator rules off the data rows before it from the ones after, so
    // one with no data row on either side would only repeat a border.
    const auto last_data = std::find_if(rows_.rbegin(), rows_.rend(),
                                        [](const row& r) { return !r.cells.empty(); });
    const auto end = last_data.base();  // one past the last data row
    bool ruled = true;                  // the header's rule was just printed
    for (auto r = rows_.begin(); r != end; ++r) {
        if (!r->cells.empty()) {
            print_cells(r->cells);
            ruled = false;
        } else if (!ruled) {
            print_line();
            ruled = true;
        }
    }
    print_line();
}

std::string fmt(double v, int precision) {
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    return ss.str();
}

std::string fmt_pm(double value, double half_width, int precision) {
    return fmt(value, precision) + " ± " + fmt(half_width, precision);
}

std::string fmt_sci(double v, int precision) {
    std::ostringstream ss;
    ss << std::scientific << std::setprecision(precision) << v;
    return ss.str();
}

}  // namespace levy::stats
