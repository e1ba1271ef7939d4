"""The standard host image: one private build, cloned for every host.

``build_standard_host()`` copies a lazily built image instead of rebuilding
the host, and the account-database parsers are memoised on their input
text.  These tests pin that every copy equals a fresh build (inode numbers
included), that nothing a cell does to its copy reaches the image or the next
copy, and that memoised parsing and directly constructed diversified entries
behave exactly like the plain versions.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.api.campaign import attacks_by_name, prepare_attack
from repro.api.spec import ADDRESS_UID_SPEC
from repro.kernel.errors import Errno, KernelError
from repro.kernel.filesystem import FileSystem, Inode
from repro.kernel.host import ACCESS_LOG, build_filesystem, build_standard_host
from repro.kernel.passwd import (
    GroupEntry,
    PasswdEntry,
    default_group_entries,
    default_passwd_entries,
    diversify_group,
    diversify_passwd,
    format_group,
    format_passwd,
    parse_group,
    parse_passwd,
)


def snapshot(fs: FileSystem) -> list[tuple]:
    """Every inode's ``(path, number, mode, uid, gid, bytes)``, in walk order."""
    return [
        (path, node.number, node.mode, node.uid, node.gid, bytes(node.data))
        for path, node in fs.walk()
    ]


class TestClone:
    def test_standard_host_equals_a_fresh_build(self):
        assert snapshot(build_standard_host().fs) == snapshot(build_filesystem())

    def test_clone_equals_its_source_and_numbers_on_from_it(self):
        source = build_filesystem()
        source.create_file("/tmp/scratch", b"abc", mode=0o600, uid=1000, gid=1000)
        copy = source.clone()
        assert snapshot(copy) == snapshot(source)
        assert (
            copy.create_file("/tmp/next", b"").number
            == source.create_file("/tmp/next", b"").number
        )

    def test_clone_shares_no_inode_dict_or_buffer(self):
        source = build_filesystem()
        copy = source.clone()
        source_nodes = [node for _, node in source.walk()]
        copy_nodes = [node for _, node in copy.walk()]
        for field in (lambda n: n, lambda n: n.data, lambda n: n.entries):
            assert not {id(field(n)) for n in source_nodes} & {id(field(n)) for n in copy_nodes}

    def test_attack_cell_and_mutations_stay_on_their_own_copy(self):
        reference = snapshot(build_filesystem())
        attack = attacks_by_name()["full-word-root-overwrite"]
        cell = prepare_attack(attack, ADDRESS_UID_SPEC)
        session = cell.start()
        while not session.done:
            session.step()
        assert cell.finish(session).detected
        fs = session.kernel.fs
        assert snapshot(fs) != reference  # the cell created its unshared files
        # An in-place append, as the kernel's write() does, then the
        # whole-file, metadata and directory mutations.
        fs.lookup(ACCESS_LOG).data.extend(b"appended in place\n")
        fs.write_file("/etc/passwd", b"mallory:x:0:0::/:/bin/sh\n")
        fs.chmod("/etc/shadow", 0o666)
        fs.unlink("/root/secrets.txt")
        assert snapshot(build_standard_host().fs) == reference
        assert snapshot(build_filesystem()) == reference


class TestInodeNumbers:
    def test_stat_does_not_depend_on_hosts_built_before(self):
        first = build_standard_host().fs.stat("/etc/passwd")
        built = [build_filesystem().stat("/etc/passwd") for _ in range(4)]
        sixth = build_standard_host().fs.stat("/etc/passwd")
        assert sixth == first
        assert built == [first] * 4

    def test_bare_inode_outside_a_filesystem(self):
        node = Inode(mode=0o644, uid=0, gid=0, is_directory=False)
        assert node.number == 0 and node.data == bytearray() and node.entries == {}

    def test_mkdir_parents_creates_only_the_missing_components(self):
        fs = build_filesystem()
        numbers = {path: node.number for path, node in fs.walk()}
        leaf = fs.mkdir("/var/log/httpd/archive/2008", parents=True)
        assert leaf is fs.lookup("/var/log/httpd/archive/2008")
        assert {path: node.number for path, node in fs.walk() if path in numbers} == numbers
        assert fs.lookup("/var/log/httpd/archive").number + 1 == leaf.number
        assert fs.mkdir("/var/log", parents=True) is fs.lookup("/var/log")

    def test_mkdir_parents_through_a_file_raises_enotdir(self):
        fs = build_filesystem()
        with pytest.raises(KernelError) as info:
            fs.mkdir("/etc/passwd/sub", parents=True)
        assert info.value.errno is Errno.ENOTDIR


class TestMemoisedParsing:
    @pytest.mark.parametrize(
        "parse, text, expected",
        [
            (parse_passwd, format_passwd(default_passwd_entries()), default_passwd_entries()),
            (parse_group, format_group(default_group_entries()), default_group_entries()),
        ],
    )
    def test_each_call_returns_a_new_list(self, parse, text, expected):
        first = parse(text)
        second = parse(text)
        assert first == second == expected
        assert first is not second
        first.clear()
        second.append(None)
        assert parse(text) == expected

    @pytest.mark.parametrize(
        "parse, text", [(parse_passwd, "root:x:0\n"), (parse_group, "wheel:x\n")]
    )
    def test_malformed_text_raises_on_every_call(self, parse, text):
        for _ in range(3):
            with pytest.raises(KernelError):
                parse(text)


NAMES = st.text(alphabet="abcdefgh-", min_size=1, max_size=8)
IDS = st.integers(min_value=0, max_value=0xFFFFFFFF)
PASSWD_ENTRIES = st.lists(
    st.builds(PasswdEntry, NAMES, st.just("x"), IDS, IDS, NAMES, NAMES, NAMES), max_size=8
)
GROUP_ENTRIES = st.lists(
    st.builds(GroupEntry, NAMES, st.just("x"), IDS, st.lists(NAMES, max_size=3).map(tuple)),
    max_size=8,
)


class TestDirectConstruction:
    """``diversify_*`` build entries directly; ``dataclasses.replace`` is the reference."""

    @given(PASSWD_ENTRIES, IDS)
    def test_diversify_passwd_matches_replace(self, entries, mask):
        def reexpress(value):
            return value ^ mask

        expected = [
            dataclasses.replace(e, uid=reexpress(e.uid), gid=reexpress(e.gid)) for e in entries
        ]
        varied = diversify_passwd(entries, reexpress)
        assert varied == expected
        assert all(type(entry) is PasswdEntry for entry in varied)

    @given(GROUP_ENTRIES, IDS)
    def test_diversify_group_matches_replace(self, entries, mask):
        def reexpress(value):
            return value ^ mask

        expected = [dataclasses.replace(e, gid=reexpress(e.gid)) for e in entries]
        varied = diversify_group(entries, reexpress)
        assert varied == expected
        assert all(type(entry) is GroupEntry for entry in varied)
