"""The standard host image: one private build, shared copy-on-write by every host.

``build_standard_host()`` clones a lazily built image instead of rebuilding
the host.  A clone shares each file's immutable ``bytes`` with the image
until its first in-place write, the diversified account databases are
rendered once per mask set, and the account-database parsers are memoised on
their input text.  These tests pin that every copy equals a fresh build
(inode numbers included), that nothing a cell does to its copy through any
write path reaches the image or a sibling copy, that the memoised account
text equals a fresh rendering and still follows a key rotation, and that
memoised parsing and directly constructed diversified entries behave exactly
like the plain versions.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.builders import build_session
from repro.api.campaign import attacks_by_name, prepare_attack
from repro.api.registry import VariationParameterError, registry
from repro.api.spec import ADDRESS_UID_SPEC, keyed_uid_spec
from repro.apps.httpd.server import make_httpd_factory
from repro.attacks.payloads import benign_request
from repro.core.variations.uid import UIDVariation
from repro.kernel.errors import Errno, KernelError
from repro.kernel.filesystem import (
    O_APPEND,
    O_CREAT,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    FileSystem,
    Inode,
)
from repro.kernel.host import (
    ACCESS_LOG,
    DEFAULT_FTP_DOCUMENTS,
    DOCROOT,
    HTTP_PORT,
    _standard_image,
    build_filesystem,
    build_standard_host,
    install_ftp_site,
)
from repro.kernel.kernel import SimulatedKernel
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
from repro.kernel.syscalls import Syscall, request


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

    def test_clone_shares_no_inode_dict_or_mutable_buffer(self):
        source = build_filesystem()
        source.lookup(ACCESS_LOG).mutable_data().extend(b"written before the clone\n")
        copy = source.clone()
        source_nodes = [node for _, node in source.walk()]
        copy_nodes = [node for _, node in copy.walk()]
        for field in (lambda n: n, lambda n: n.entries):
            assert not {id(field(n)) for n in source_nodes} & {id(field(n)) for n in copy_nodes}
        mutable = {id(n.data) for n in source_nodes + copy_nodes if type(n.data) is bytearray}
        assert mutable == {id(source.lookup(ACCESS_LOG).data)}
        assert copy.lookup(ACCESS_LOG).data == source.lookup(ACCESS_LOG).data
        # Unwritten documents are shared, not copied.
        document = f"{DOCROOT}/downloads/archive.bin"
        assert copy.lookup(document).data is source.lookup(document).data

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
        fs.lookup(ACCESS_LOG).mutable_data().extend(b"appended in place\n")
        fs.create_file("/etc/passwd", b"mallory:x:0:0::/:/bin/sh\n")
        fs.chmod("/etc/shadow", 0o666)
        fs.unlink("/root/secrets.txt")
        assert snapshot(build_standard_host().fs) == reference
        assert snapshot(build_filesystem()) == reference


#: Files the write sequences below touch: account databases, a root-only
#: file, a log, shared documents, and scratch paths that start out missing.
WRITE_PATHS = st.sampled_from(
    (
        "/etc/passwd",
        "/etc/shadow",
        ACCESS_LOG,
        f"{DOCROOT}/index.html",
        f"{DOCROOT}/docs/manual.html",
        f"{DOCROOT}/docs",
        "/tmp/scratch-a",
        "/tmp/scratch-b",
    )
)
WRITES = st.lists(
    st.tuples(
        st.sampled_from(
            ("append", "overwrite", "truncate", "create", "replace", "unlink", "rename")
        ),
        WRITE_PATHS,
        WRITE_PATHS,
        st.integers(min_value=0, max_value=40_000),
        st.binary(max_size=48),
    ),
    max_size=12,
)


def apply_writes(kernel, writes) -> None:
    """Run *writes* as a root process's system calls (failures are allowed)."""
    process = kernel.spawn_process("writer")

    def call(name, *args):
        return kernel.execute(process, request(name, *args))

    def write_through(path, flags, data, offset=None):
        opened = call(Syscall.OPEN, path, flags)
        if opened.ok:
            if offset is not None:
                call(Syscall.LSEEK, opened.value, offset, 0)
            call(Syscall.WRITE, opened.value, data)
            call(Syscall.CLOSE, opened.value)

    for kind, path, other, offset, data in writes:
        if kind == "append":
            write_through(path, O_WRONLY | O_APPEND, data)
        elif kind == "overwrite":
            write_through(path, O_RDWR, data, offset)
        elif kind == "truncate":
            write_through(path, O_WRONLY | O_TRUNC, data)
        elif kind == "create":
            write_through(path, O_WRONLY | O_CREAT, data)
        elif kind == "replace":
            try:
                kernel.fs.create_file(path, data)
            except KernelError:
                pass
        elif kind == "unlink":
            call(Syscall.UNLINK, path)
        else:
            call(Syscall.RENAME, path, other)


class TestCopyOnWrite:
    @settings(max_examples=60, deadline=None)
    @given(WRITES)
    def test_writes_to_one_clone_reach_neither_the_image_nor_a_sibling(self, writes):
        reference = snapshot(build_filesystem())
        sibling = build_standard_host()
        written = build_standard_host()
        apply_writes(written, writes)
        assert snapshot(_standard_image()) == reference
        assert snapshot(sibling.fs) == reference
        assert snapshot(build_standard_host().fs) == reference
        # The clone itself behaved exactly like a private fresh build.
        fresh = SimulatedKernel(filesystem=build_filesystem())
        apply_writes(fresh, writes)
        assert snapshot(written.fs) == snapshot(fresh.fs)

    def test_ftp_hosts_share_their_document_bytes(self):
        hosts = [build_standard_host().fs for _ in range(2)]
        for fs in hosts:
            install_ftp_site(fs)
        for document in DEFAULT_FTP_DOCUMENTS:
            first, second = (fs.lookup(document.path).data for fs in hosts)
            assert first is second and first == document.content()


def uid_variations():
    """One instance of every registered variation that writes account files."""
    for entry in registry:
        counts = (2, 3) if "num_variants" in entry.parameters() else (None,)
        for count in counts:
            params = {"num_variants": count} if count is not None else {}
            try:
                variation = registry.create(entry.name, params)
            except VariationParameterError:  # a two-variant-only variation
                continue
            if isinstance(variation, UIDVariation):
                yield pytest.param(variation, id=f"{entry.name}-{variation.num_variants}")


class TestAccountDatabaseMemo:
    @pytest.mark.parametrize("variation", uid_variations())
    def test_memoised_text_equals_a_fresh_rendering(self, variation):
        hosts = [build_standard_host().fs for _ in range(2)]
        for fs in hosts:
            variation.setup_unshared_files(fs)
        passwd = parse_passwd(hosts[0].read_file("/etc/passwd").decode())
        group = parse_group(hosts[0].read_file("/etc/group").decode())
        for index in range(variation.num_variants):
            forward = variation.reexpression(index).forward
            expected = {
                f"/etc/passwd-{index}": format_passwd(diversify_passwd(passwd, forward)),
                f"/etc/group-{index}": format_group(diversify_group(group, forward)),
            }
            for path, text in expected.items():
                assert [fs.read_file(path) for fs in hosts] == [text.encode()] * 2
                # The second host reused the first one's rendering.
                assert hosts[0].lookup(path).data is hosts[1].lookup(path).data

    def test_a_rotated_key_rewrites_the_account_files(self):
        kernel = build_standard_host()
        session = build_session(
            keyed_uid_spec(2, seed=9),
            kernel,
            make_httpd_factory(transformed=True, max_requests=1),
            name="memo-rotation",
        )
        before = kernel.fs.read_file("/etc/passwd-1")
        session.restart(rotate_keys=True)
        assert kernel.fs.read_file("/etc/passwd-1") != before
        kernel.client_connect(HTTP_PORT, benign_request())
        result = session.run()
        assert result.alarms == [], [alarm.describe() for alarm in result.alarms]
        response = kernel.network.connections[-1].response_bytes()
        assert response.startswith(b"HTTP/1.0 200 OK")


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
