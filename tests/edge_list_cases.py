"""Edge-list texts and what parse_graph makes of them.

MALFORMED holds (id, text, str(error), error.lineno) and ACCEPTED holds
(id, text, n, edges).  The outcomes were recorded from an earlier per-line
parser, so they pin the accepted language and every error message.  They
cover each error class, lines with two faults, which of several faulty
lines is reported, CRLF, tabs and trailing blanks, every line break
str.splitlines knows and the integer spellings int() accepts (signs,
underscores, leading zeros, non-ASCII digits), a field beyond int64 and a
token longer than int()'s default digit limit.

Plain data, so that CI can feed the same texts through the CLI.
"""

LONG = "1" * 5000

MALFORMED = [
    ("empty", "", "empty input", None),
    ("blank_only", " \n\t\n\r\n", "empty input", None),
    ("header_one_field", "3\n", "line 1: header must be 'n m', got '3'", 1),
    ("header_three_fields", "3 1 2\n0 1\n", "line 1: header must be 'n m', got '3 1 2'", 1),
    ("header_not_integers", "two 1\n0 1\n", "line 1: header must be two integers, got 'two 1'", 1),
    ("header_float", "3 1.0\n0 1\n", "line 1: header must be two integers, got '3 1.0'", 1),
    ("no_vertices", "0 0\n", "line 1: vertex count must be positive, got 0", 1),
    ("negative_edge_count", "3 -1\n", "line 1: edge count must be non-negative, got -1", 1),
    ("too_few_edge_lines", "3 2\n0 1\n", "header promises 2 edges, found 1 edge lines", None),
    (
        "too_many_edge_lines",
        "3 1\n0 1\n1 2\n",
        "header promises 1 edges, found 2 edge lines",
        None,
    ),
    ("one_field", "3 1\n0\n", "line 2: edge line must be 'u v', got '0'", 2),
    ("three_fields", "3 1\n0 1 2\n", "line 2: edge line must be 'u v', got '0 1 2'", 2),
    ("not_integer", "3 1\n0 x\n", "line 2: edge line must be two integers, got '0 x'", 2),
    ("float_vertex", "3 1\n0 1.0\n", "line 2: edge line must be two integers, got '0 1.0'", 2),
    ("out_of_range", "3 1\n0 3\n", "line 2: edge (0, 3) out of range for n=3", 2),
    ("negative_vertex", "3 1\n-1 2\n", "line 2: edge (-1, 2) out of range for n=3", 2),
    ("reversed", "3 1\n1 0\n", "line 2: edge must satisfy u < v, got (1, 0)", 2),
    ("self_loop", "3 1\n1 1\n", "line 2: edge must satisfy u < v, got (1, 1)", 2),
    ("duplicate", "3 2\n0 1\n0 1\n", "line 3: duplicate edge (0, 1)", 3),
    ("two_faults_range_and_order", "3 1\n4 1\n", "line 2: edge (4, 1) out of range for n=3", 2),
    (
        "two_faults_range_and_integer",
        "3 1\n9 x\n",
        "line 2: edge line must be two integers, got '9 x'",
        2,
    ),
    (
        "two_faults_fields_and_integer",
        "3 1\n1 0 x\n",
        "line 2: edge line must be 'u v', got '1 0 x'",
        2,
    ),
    (
        "integer_before_fields",
        "3 2\n0 x\n0 1 2\n",
        "line 2: edge line must be two integers, got '0 x'",
        2,
    ),
    (
        "fields_before_integer",
        "3 2\n0 1 2\n0 x\n",
        "line 2: edge line must be 'u v', got '0 1 2'",
        2,
    ),
    ("range_before_integer", "3 2\n0 9\n0 x\n", "line 2: edge (0, 9) out of range for n=3", 2),
    ("order_before_fields", "3 2\n1 0\n0\n", "line 2: edge must satisfy u < v, got (1, 0)", 2),
    ("duplicate_before_range", "3 3\n0 1\n0 1\n1 9\n", "line 3: duplicate edge (0, 1)", 3),
    (
        "range_before_duplicate",
        "3 3\n0 1\n1 9\n0 1\n",
        "line 3: edge (1, 9) out of range for n=3",
        3,
    ),
    ("duplicate_before_fields", "3 3\n0 1\n0 1\n0 1 2\n", "line 3: duplicate edge (0, 1)", 3),
    ("duplicate_before_integer", "3 4\n0 1\n1 2\n0 1\nx y\n", "line 4: duplicate edge (0, 1)", 4),
    ("crlf_reversed", "3 2\r\n0 1\r\n2 1\r\n", "line 3: edge must satisfy u < v, got (2, 1)", 3),
    ("lone_cr", "3 1\r0 5", "line 2: edge (0, 5) out of range for n=3", 2),
    ("tabs_out_of_range", "3 1\n\t0\t5 \n", "line 2: edge (0, 5) out of range for n=3", 2),
    ("blank_lines_then_range", "\n\n3 1\n\n0 5\n", "line 5: edge (0, 5) out of range for n=3", 5),
    ("plus_signs_reversed", "3 1\n+1 +0\n", "line 2: edge must satisfy u < v, got (1, 0)", 2),
    ("underscore_out_of_range", "3 1\n0 1_0\n", "line 2: edge (0, 10) out of range for n=3", 2),
    (
        "arabic_indic_out_of_range",
        "3 1\n\u0660 \u0663\n",
        "line 2: edge (0, 3) out of range for n=3",
        2,
    ),
    (
        "nbsp_three_fields",
        "3 1\n0\xa01\xa02\n",
        "line 2: edge line must be 'u v', got '0\\xa01\\xa02'",
        2,
    ),
    (
        "beyond_int64",
        "3 1\n0 99999999999999999999\n",
        "line 2: edge (0, 99999999999999999999) out of range for n=3",
        2,
    ),
    (
        "beyond_int64_negative",
        "3 1\n-99999999999999999999 1\n",
        "line 2: edge (-99999999999999999999, 1) out of range for n=3",
        2,
    ),
    (
        "beyond_int64_then_integer",
        "3 2\n0 99999999999999999999\n0 x\n",
        "line 2: edge (0, 99999999999999999999) out of range for n=3",
        2,
    ),
    (
        "long_token",
        "3 1\n0 " + LONG + "\n",
        f"line 2: edge line must be two integers, got {'0 ' + LONG!r}",
        2,
    ),
    (
        "line_separator_then_reversed",
        "3 2\n0 1\u20282 1\n",
        "line 3: edge must satisfy u < v, got (2, 1)",
        3,
    ),
]
ACCEPTED = [
    ("no_edges", "3 0\n", 3, []),
    ("no_edges_blank_tail", "3 0\n\n\n", 3, []),
    ("no_final_newline", "3 1\n0 1", 3, [(0, 1)]),
    ("crlf", "3 2\r\n0 1\r\n1 2\r\n", 3, [(0, 1), (1, 2)]),
    ("tabs", "3\t1\n0\t1\n", 3, [(0, 1)]),
    ("trailing_blanks", "3 1  \n0 1   \n\n  \n", 3, [(0, 1)]),
    ("plus_signs", "3 1\n+0 +1\n", 3, [(0, 1)]),
    ("underscores", "20 1\n1_0 1_1\n", 20, [(10, 11)]),
    ("zero_padded", "3 1\n00 02\n", 3, [(0, 2)]),
    ("arabic_indic", "3 1\n\u0660 \u0661\n", 3, [(0, 1)]),
    ("fullwidth", "3 1\n\uff10 \uff12\n", 3, [(0, 2)]),
    ("nbsp", "3 1\n0\xa01\n", 3, [(0, 1)]),
    ("unit_separator", "3 1\n0\x1f2\n", 3, [(0, 2)]),
    ("file_separator_line_break", "3 2\x1c0 1\x1c1 2\n", 3, [(0, 1), (1, 2)]),
    ("form_feed_line_break", "3 1\x0c0 1\n", 3, [(0, 1)]),
    ("next_line_break", "3 1\x850 2\n", 3, [(0, 2)]),
    ("vertical_tab_line_break", "3 2\n0 1\x0b1 2\n", 3, [(0, 1), (1, 2)]),
    ("line_separator_line_break", "3 2\n0 1\u20281 2\n", 3, [(0, 1), (1, 2)]),
]
