#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

namespace levy::stats {

/// Fixed-width ASCII table writer. Every benchmark binary prints its
/// paper-vs-measured rows through this, so all experiment output has one
/// consistent, diffable format.
///
///     text_table t({"ell", "alpha", "P(hit)", "predicted"});
///     t.add_row({fmt(64), fmt(2.5), fmt(0.123), fmt(0.2)});
///     t.print(std::cout);
class text_table {
public:
    explicit text_table(std::vector<std::string> header);

    /// Append a row; must have exactly as many cells as the header.
    void add_row(std::vector<std::string> cells);

    /// Append a horizontal separator line. It prints only between two data
    /// rows: one after another separator, or before the bottom border (or
    /// right after the header), would repeat a border and prints nothing.
    void add_separator();

    [[nodiscard]] std::size_t rows() const noexcept;

    [[nodiscard]] const std::vector<std::string>& header() const noexcept { return header_; }

    /// Data rows in print order, separators elided.
    [[nodiscard]] std::vector<std::vector<std::string>> cell_rows() const;

    void print(std::ostream& os) const;

private:
    struct row {
        std::vector<std::string> cells;  // empty => separator
    };
    std::vector<std::string> header_;
    std::vector<row> rows_;
};

/// Hook invoked (when installed) by `text_table::print` with the table just
/// printed. The observability layer uses this to capture every bench's
/// result rows for the structured JSON sink without the benches — or this
/// layer — knowing about it. Pass an empty function to uninstall.
/// Not thread-safe: install before worker threads print tables.
void set_table_print_observer(std::function<void(const text_table&)> observer);

/// Formatting helpers for table cells.
[[nodiscard]] std::string fmt(double v, int precision = 4);
template <class Int>
    requires std::is_integral_v<Int>
[[nodiscard]] std::string fmt(Int v) {
    return std::to_string(v);
}
/// "a ± b" convenience.
[[nodiscard]] std::string fmt_pm(double value, double half_width, int precision = 4);
/// Scientific notation.
[[nodiscard]] std::string fmt_sci(double v, int precision = 3);

}  // namespace levy::stats
