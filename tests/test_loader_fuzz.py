"""Loader fuzz: one mutation of a valid input file either parses to the
clean file's dataset or raises naming the file, and the line where one
line is at fault.

Each case starts from a valid CORA content/cites pair or a valid
synthetic file and applies one mutation: a dropped or an extra field, a
feature token other than 0/1, a duplicate id, an unknown linked id, a NaN
observation, CRLF line endings or a trailing blank line.  A link token is
never dropped or added: that makes a one-way link, which either of two
lines may be at fault for.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import CoraFormatError, SyntheticConfig, generate_synthetic, load_cora, load_synthetic, save_synthetic

CONTENT = ["11\t1\t0\t0\tA", "12\t0\t1\t0\tB", "13\t1\t1\t0\tA", "14\t0\t0\t1\tC", "15\t1\t0\t1\tB"]
CITES = ["11\t12", "13\t11", "14\t15", "12\t15"]
SYNTHETIC = SyntheticConfig(
    n_classes=3, n_features=2, instances_per_class=3, m_attribute_classes=2, attributes_per_instance=1,
    links_per_instance=2, seed=0,
)
NON_BINARY = ["2", "x", "", "0.5", "-1", "nan", "01", "1 "]


def check(load, paths, texts, clean, fault):
    """Write ``texts`` to ``paths`` and load them.  ``fault`` is ``(path,
    line)``, line None where no one line is at fault, or None where the
    mutation changes nothing the loader reads."""
    try:
        result = load(*write(paths, *texts))
    except ValueError as exc:  # CoraFormatError is one
        assert fault is not None, f"raised on an input equal to the clean one: {exc}"
        path, line = fault
        message = str(exc)
        assert message.startswith(f"{path}:"), message
        if line is not None:
            assert re.search(rf"^{re.escape(str(path))}:{line}:|line {line}\b", message), message
    else:
        assert result == clean


def mutate_line(lines, data):
    """One line-local mutation of ``lines`` (each a list of fields); returns
    the mutated lines and the 0-based index of the line at fault."""
    k = data.draw(st.integers(0, len(lines) - 1))
    fields = list(lines[k])
    kind = data.draw(st.sampled_from(["drop", "extra"]))
    if kind == "drop":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    else:
        fields.insert(data.draw(st.integers(0, len(fields))), data.draw(st.sampled_from(["0", "1", "7"])))
    return lines[:k] + [fields] + lines[k + 1 :], k


def ending(data, text):
    kind = data.draw(st.sampled_from(["none", "crlf", "blank", "crlf+blank"]))
    if "crlf" in kind:
        text = text.replace("\n", "\r\n")
    if "blank" in kind:
        text += "\r\n" if "crlf" in kind else "\n"
    return text


def joined(lines, sep):
    return "".join(sep.join(fields) + "\n" for fields in lines)


def write(paths, *texts):
    for path, text in zip(paths, texts):
        path.write_text(text)
    return paths


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cora_mutation_parses_clean_or_names_path_and_line(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("cora")
    paths = (tmp / "x.content", tmp / "x.cites")
    content, cites = [line.split("\t") for line in CONTENT], [line.split("\t") for line in CITES]
    clean = load_cora(*write(paths, joined(content, "\t"), joined(cites, "\t")))
    kind = data.draw(st.sampled_from(["content field", "cites field", "token", "duplicate id", "unknown id", "ending"]))
    fault = None
    if kind == "content field":
        content, k = mutate_line(content, data)
        fault = (paths[0], k + 1)
    elif kind == "cites field":
        cites, k = mutate_line(cites, data)
        fault = (paths[1], k + 1)
    elif kind == "token":
        k, j = data.draw(st.integers(0, len(content) - 1)), data.draw(st.integers(1, 3))
        content[k][j] = data.draw(st.sampled_from(NON_BINARY))
        fault = (paths[0], k + 1)
    elif kind == "duplicate id":
        k, other = data.draw(st.permutations(range(len(content))))[:2]
        content[k][0] = content[other][0]
        fault = (paths[0], k + 1)
    elif kind == "unknown id":
        k, end = data.draw(st.integers(0, len(cites) - 1)), data.draw(st.integers(0, 1))
        cites[k][end] = str(data.draw(st.sampled_from([0, 10, 16, 99])))
        fault = (paths[1], k + 1)
    texts = [joined(content, "\t"), joined(cites, "\t")]
    if kind == "ending":
        texts = [ending(data, text) for text in texts]
    check(load_cora, paths, texts, clean, fault)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_synthetic_mutation_parses_clean_or_names_path_and_line(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("synthetic")
    path = tmp / "data.txt"
    save_synthetic(generate_synthetic(SYNTHETIC), path)
    header, *records = path.read_text().splitlines()
    clean = load_synthetic(path)
    # a record as [head fields, link fields, observation fields]
    records = [[section.split() for section in record.split("|")] for record in records]
    kind = data.draw(st.sampled_from(["header field", "head field", "observation field", "duplicate id",
                                      "unknown id", "nan", "ending"]))
    fault = (path, None)
    k = data.draw(st.integers(0, len(records) - 1))
    head, links, obs = records[k]
    if kind == "header field":
        [header_fields], _ = mutate_line([header.split()], data)
        header, fault = " ".join(header_fields), (path, 1)
    elif kind in ("head field", "observation field"):
        section = 0 if kind == "head field" else 2
        [records[k][section]], _ = mutate_line([records[k][section]], data)
        fault = (path, k + 2)
    elif kind == "duplicate id":
        other = data.draw(st.sampled_from([i for i in range(len(records)) if i != k]))
        head[0] = records[other][0][0]
        fault = (path, k + 2)
    elif kind == "unknown id":
        links.append(str(data.draw(st.sampled_from([9, 10, 99]))))
        fault = (path, k + 2)
    elif kind == "nan":
        fields, first = data.draw(st.sampled_from([(head, 2), (obs, 0)]))  # a feature or an attribute value
        fields[data.draw(st.integers(first, len(fields) - 1))] = "nan"
        fault = (path, k + 2)
    text = header + "\n" + "".join(" | ".join(" ".join(s) for s in record) + "\n" for record in records)
    if kind == "ending":
        text, fault = ending(data, text), None
    check(load_synthetic, (path,), (text,), clean, fault)


@pytest.mark.parametrize(
    "content, cites, where, message",
    [
        # the content's first line sets the feature count
        (["11\t1\t0\t0\t0\tA", "12\t0\t1\t0\tB"], [], "x.content:2", "expected 4 features as on line 1, got 3"),
        (["11\t1\t0\tA", "12\t0\t1\tB", "11\t1\t1\tA"], [], "x.content:3", "duplicate id 11, first on line 1"),
    ],
)
def test_cora_fault_names_both_lines(tmp_path, content, cites, where, message):
    # the duplicate used to name the content file alone, and a bad first
    # line only the line after it
    paths = write((tmp_path / "x.content", tmp_path / "x.cites"), joined([c.split("\t") for c in content], "\t"),
                   joined([c.split("\t") for c in cites], "\t"))
    with pytest.raises(CoraFormatError, match=f"^{re.escape(str(tmp_path / where))}: {re.escape(message)}$"):
        load_cora(*paths)
