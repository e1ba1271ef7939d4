"""Unit tests for passwd/group parsing, diversification and descriptor tables."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.errors import Errno, KernelError
from repro.kernel.filesystem import Inode, O_APPEND, O_RDONLY, O_RDWR, O_WRONLY
from repro.kernel.filetable import FileDescriptorTable, OpenFile, SocketDescriptor
from repro.kernel.passwd import (
    PasswdEntry,
    UserDatabase,
    default_group_entries,
    default_passwd_entries,
    diversify_group,
    diversify_passwd,
    format_group,
    format_passwd,
    parse_group,
    parse_passwd,
)

UID_MASK = 0x7FFFFFFF


class TestPasswdParsing:
    def test_roundtrip_defaults(self):
        entries = default_passwd_entries()
        assert parse_passwd(format_passwd(entries)) == entries

    def test_group_roundtrip_defaults(self):
        entries = default_group_entries()
        assert parse_group(format_group(entries)) == entries

    def test_parse_skips_comments_and_blank_lines(self):
        text = "# comment\n\nroot:x:0:0:root:/root:/bin/sh\n"
        entries = parse_passwd(text)
        assert len(entries) == 1 and entries[0].name == "root"

    def test_malformed_line_raises(self):
        with pytest.raises(KernelError) as info:
            parse_passwd("root:x:0\n")
        assert info.value.errno is Errno.EINVAL

    def test_malformed_group_raises(self):
        with pytest.raises(KernelError):
            parse_group("wheel:x\n")

    def test_user_database_lookups(self):
        db = UserDatabase(default_passwd_entries(), default_group_entries())
        assert db.getpwnam("www-data").uid == 33
        assert db.getpwuid(0).name == "root"
        assert db.getgrnam("www-data").gid == 33
        assert db.getgrgid(1000).name == "alice"

    def test_user_database_missing_raises_keyerror(self):
        db = UserDatabase(default_passwd_entries())
        with pytest.raises(KeyError):
            db.getpwnam("nosuchuser")
        with pytest.raises(KeyError):
            db.getpwuid(4242)

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdefgh", min_size=1, max_size=8),
                st.integers(min_value=0, max_value=UID_MASK),
                st.integers(min_value=0, max_value=UID_MASK),
            ),
            max_size=8,
        )
    )
    def test_parse_format_roundtrip_property(self, rows):
        entries = [
            PasswdEntry(name, "x", uid, gid, "", f"/home/{name}", "/bin/sh")
            for name, uid, gid in rows
        ]
        assert parse_passwd(format_passwd(entries)) == entries


class TestDiversification:
    def test_diversify_passwd_transforms_uid_and_gid(self):
        entries = default_passwd_entries()
        varied = diversify_passwd(entries, lambda u: u ^ UID_MASK)
        for original, transformed in zip(entries, varied):
            assert transformed.uid == original.uid ^ UID_MASK
            assert transformed.gid == original.gid ^ UID_MASK
            assert transformed.name == original.name

    def test_diversify_group_transforms_gid_only(self):
        entries = default_group_entries()
        varied = diversify_group(entries, lambda g: g ^ UID_MASK)
        for original, transformed in zip(entries, varied):
            assert transformed.gid == original.gid ^ UID_MASK
            assert transformed.members == original.members

    def test_identity_diversification_is_noop(self):
        entries = default_passwd_entries()
        assert diversify_passwd(entries, lambda u: u) == entries

    def test_root_representation_in_variant_one(self):
        varied = diversify_passwd(default_passwd_entries(), lambda u: u ^ UID_MASK)
        root = next(e for e in varied if e.name == "root")
        assert root.uid == 0x7FFFFFFF  # "0x7FFFFFFF represents root"


def _inode(content=b"hello"):
    node = Inode(mode=0o644, uid=0, gid=0, is_directory=False)
    node.data = bytearray(content)
    return node


class TestOpenFile:
    def test_read_advances_offset(self):
        handle = OpenFile(inode=_inode(b"hello world"), flags=O_RDONLY)
        assert handle.read(5) == b"hello"
        assert handle.read(6) == b" world"
        assert handle.read(5) == b""

    def test_write_requires_writable_flags(self):
        handle = OpenFile(inode=_inode(), flags=O_RDONLY)
        with pytest.raises(KernelError) as info:
            handle.write(b"x")
        assert info.value.errno is Errno.EBADF

    def test_read_requires_readable_flags(self):
        handle = OpenFile(inode=_inode(), flags=O_WRONLY)
        with pytest.raises(KernelError):
            handle.read(1)

    def test_write_extends_file(self):
        node = _inode(b"")
        handle = OpenFile(inode=node, flags=O_RDWR)
        handle.write(b"abc")
        assert bytes(node.data) == b"abc"

    def test_append_mode_writes_at_end(self):
        node = _inode(b"log:")
        handle = OpenFile(inode=node, flags=O_WRONLY | O_APPEND)
        handle.offset = 0
        handle.write(b"entry")
        assert bytes(node.data) == b"log:entry"

    def test_seek_modes(self):
        handle = OpenFile(inode=_inode(b"0123456789"), flags=O_RDONLY)
        assert handle.seek(4, 0) == 4
        assert handle.seek(2, 1) == 6
        assert handle.seek(-1, 2) == 9
        with pytest.raises(KernelError):
            handle.seek(-100, 1)
        with pytest.raises(KernelError):
            handle.seek(0, 7)


class TestFileDescriptorTable:
    def test_allocates_lowest_free_descriptor(self):
        table = FileDescriptorTable()
        fd0 = table.allocate(OpenFile(inode=_inode(), flags=O_RDONLY))
        fd1 = table.allocate(OpenFile(inode=_inode(), flags=O_RDONLY))
        assert (fd0, fd1) == (0, 1)
        table.close(fd0)
        fd2 = table.allocate(OpenFile(inode=_inode(), flags=O_RDONLY))
        assert fd2 == 0

    def test_install_keeps_slot_alignment(self):
        table = FileDescriptorTable()
        entry = OpenFile(inode=_inode(), flags=O_RDONLY)
        table.install(5, entry)
        assert table.get(5) is entry

    def test_get_unknown_fd_raises_ebadf(self):
        table = FileDescriptorTable()
        with pytest.raises(KernelError) as info:
            table.get(3)
        assert info.value.errno is Errno.EBADF

    def test_close_all(self):
        table = FileDescriptorTable()
        for _ in range(4):
            table.allocate(OpenFile(inode=_inode(), flags=O_RDONLY))
        table.close_all()
        assert len(table) == 0

    def test_descriptor_exhaustion_raises_emfile(self):
        table = FileDescriptorTable(max_descriptors=2)
        table.allocate(OpenFile(inode=_inode(), flags=O_RDONLY))
        table.allocate(OpenFile(inode=_inode(), flags=O_RDONLY))
        with pytest.raises(KernelError) as info:
            table.allocate(OpenFile(inode=_inode(), flags=O_RDONLY))
        assert info.value.errno is Errno.EMFILE

    def test_get_socket_type_mismatch(self):
        table = FileDescriptorTable()
        fd = table.allocate(OpenFile(inode=_inode(), flags=O_RDONLY))
        with pytest.raises(KernelError) as info:
            table.get_socket(fd)
        assert info.value.errno is Errno.ENOTSOCK

    def test_typed_lookups_of_a_closed_fd_raise_ebadf(self):
        table = FileDescriptorTable()
        fd = table.allocate(SocketDescriptor(endpoint=None))
        with pytest.raises(KernelError) as info:
            table.get_file(fd)
        assert info.value.errno is Errno.EINVAL
        table.close(fd)
        for lookup in (table.get_file, table.get_socket):
            with pytest.raises(KernelError) as info:
                lookup(fd)
            assert info.value.errno is Errno.EBADF
