"""Unit tests for the virtual filesystem and its permission model."""

import posixpath

import pytest
from hypothesis import given, strategies as st

from repro.kernel.credentials import Credentials, root_credentials
from repro.kernel.errors import Errno, KernelError
from repro.kernel.filesystem import FileSystem, R_OK, W_OK, X_OK


def user_credentials(uid, gid, groups=()):
    """Credentials for an unprivileged user process."""
    return Credentials(
        ruid=uid, euid=uid, suid=uid, rgid=gid, egid=gid, sgid=gid, groups=tuple(groups)
    )


@pytest.fixture
def fs():
    filesystem = FileSystem()
    filesystem.mkdir("/etc")
    filesystem.mkdir("/home")
    filesystem.mkdir("/home/alice", uid=1000, gid=1000, mode=0o750)
    filesystem.create_file("/etc/passwd", "root:x:0:0:::\n", mode=0o644)
    filesystem.create_file("/etc/shadow", "secret", mode=0o600)
    filesystem.create_file("/home/alice/diary.txt", "dear diary", mode=0o600, uid=1000, gid=1000)
    return filesystem


class TestPathResolution:
    def test_root_exists(self, fs):
        assert fs.exists("/")

    def test_lookup_nested(self, fs):
        assert fs.read_file("/etc/passwd").startswith(b"root:x")

    def test_missing_file_raises_enoent(self, fs):
        with pytest.raises(KernelError) as info:
            fs.lookup("/etc/missing")
        assert info.value.errno is Errno.ENOENT

    def test_file_as_directory_raises_enotdir(self, fs):
        with pytest.raises(KernelError) as info:
            fs.lookup("/etc/passwd/x")
        assert info.value.errno is Errno.ENOTDIR

    def test_relative_path_rejected(self, fs):
        with pytest.raises(KernelError) as info:
            fs.lookup("etc/passwd")
        assert info.value.errno is Errno.EINVAL

    def test_normalisation_of_dotdot(self, fs):
        # The VFS itself normalises; the traversal bug lives in the server's
        # path joining, not here.
        assert fs.read_file("/home/alice/../../etc/passwd").startswith(b"root:x")

    def test_listdir_sorted(self, fs):
        assert fs.listdir("/etc") == ["passwd", "shadow"]

    def test_listdir_on_file_raises(self, fs):
        with pytest.raises(KernelError):
            fs.listdir("/etc/passwd")

    def test_walk_covers_subtree(self, fs):
        paths = [path for path, _ in fs.walk("/etc")]
        assert "/etc/passwd" in paths and "/etc/shadow" in paths


class TestMutation:
    def test_create_and_read_file(self, fs):
        fs.create_file("/etc/hosts", "localhost\n")
        assert fs.read_file("/etc/hosts") == b"localhost\n"

    def test_create_file_replaces_content(self, fs):
        fs.create_file("/etc/passwd", b"new")
        assert fs.read_file("/etc/passwd") == b"new"

    def test_mkdir_parents(self, fs):
        fs.mkdir("/var/log/httpd", parents=True)
        assert fs.exists("/var/log/httpd")

    def test_mkdir_existing_raises_eexist(self, fs):
        with pytest.raises(KernelError) as info:
            fs.mkdir("/etc")
        assert info.value.errno is Errno.EEXIST

    def test_unlink(self, fs):
        fs.unlink("/etc/shadow")
        assert not fs.exists("/etc/shadow")

    def test_unlink_nonempty_directory_raises(self, fs):
        with pytest.raises(KernelError) as info:
            fs.unlink("/home/alice")
        assert info.value.errno is Errno.ENOTEMPTY

    def test_rename(self, fs):
        fs.rename("/etc/passwd", "/etc/passwd.bak")
        assert fs.exists("/etc/passwd.bak")
        assert not fs.exists("/etc/passwd")

    def test_rename_onto_itself_is_a_no_op(self, fs):
        for path in ("/etc/passwd", "/home/alice"):
            before = [(p, node) for p, node in fs.walk()]
            fs.rename(path, path)
            assert [(p, node) for p, node in fs.walk()] == before

    def test_rename_directory_into_its_own_subtree_raises_einval(self, fs):
        fs.mkdir("/tmp")
        fs.mkdir("/tmp/a")
        fs.mkdir("/tmp/a/sub")
        fs.create_file("/tmp/a/file", "kept")
        for target in ("/tmp/a/b", "/tmp/a/../a/b", "/tmp/a/sub/c"):
            with pytest.raises(KernelError) as info:
                fs.rename("/tmp/a", target)
            assert info.value.errno is Errno.EINVAL
        assert fs.read_file("/tmp/a/file") == b"kept"
        fs.rename("/tmp/a", "/tmp/ab")  # a sibling sharing the name prefix is fine
        assert fs.read_file("/tmp/ab/file") == b"kept"

    def test_chown_and_chmod(self, fs):
        fs.chown("/etc/shadow", 1000, 1000)
        fs.chmod("/etc/shadow", 0o400)
        stat = fs.stat("/etc/shadow")
        assert stat.uid == 1000
        assert stat.mode & 0o777 == 0o400

    def test_stat_size(self, fs):
        assert fs.stat("/home/alice/diary.txt").size == len(b"dear diary")


class TestPermissions:
    def test_root_reads_everything(self, fs):
        assert fs.access("/etc/shadow", root_credentials(), R_OK)

    def test_owner_reads_private_file(self, fs):
        alice = user_credentials(1000, 1000)
        assert fs.access("/home/alice/diary.txt", alice, R_OK)

    def test_other_user_denied_private_file(self, fs):
        bob = user_credentials(1001, 1001)
        assert not fs.access("/home/alice/diary.txt", bob, R_OK)
        assert not fs.access("/etc/shadow", bob, R_OK)

    def test_world_readable_file(self, fs):
        bob = user_credentials(1001, 1001)
        assert fs.access("/etc/passwd", bob, R_OK)
        assert not fs.access("/etc/passwd", bob, W_OK)

    def test_group_permissions(self, fs):
        fs.create_file("/etc/groupfile", "x", mode=0o640, uid=0, gid=33)
        www = user_credentials(33, 33)
        other = user_credentials(1001, 1001)
        assert fs.access("/etc/groupfile", www, R_OK)
        assert not fs.access("/etc/groupfile", other, R_OK)

    def test_supplementary_group_grants_access(self, fs):
        fs.create_file("/etc/groupfile", "x", mode=0o640, uid=0, gid=33)
        member = user_credentials(1001, 1001, groups=(33,))
        assert fs.access("/etc/groupfile", member, R_OK)

    def test_root_execute_requires_some_x_bit(self, fs):
        fs.create_file("/bin-script", "x", mode=0o644)
        assert not fs.access("/bin-script", root_credentials(), X_OK)
        fs.chmod("/bin-script", 0o755)
        assert fs.access("/bin-script", root_credentials(), X_OK)

    def test_directory_permissions_checked_for_traversal_mode(self, fs):
        bob = user_credentials(1001, 1001)
        assert not fs.access("/home/alice", bob, W_OK)


@given(st.lists(st.sampled_from(["a", "bc", ".", "..", ".d", "e.", ""]), max_size=6), st.booleans())
def test_normalize_matches_normpath(parts, trailing):
    path = "/" + "/".join(parts) + ("/" if trailing else "")
    assert FileSystem._normalize(path) == posixpath.normpath(path)
    assert FileSystem.split(path) == [part for part in posixpath.normpath(path).split("/") if part]
