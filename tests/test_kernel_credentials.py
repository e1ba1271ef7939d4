"""Unit tests for the credential model (uid_t validation and setuid semantics)."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.credentials import (
    Credentials,
    MAX_VALID_UID,
    ROOT_UID,
    root_credentials,
    validate_gid,
    validate_uid,
)
from repro.kernel.errors import Errno, KernelError

valid_uids = st.integers(min_value=0, max_value=MAX_VALID_UID)


def user_credentials(uid, gid, groups=()):
    """Credentials for an unprivileged user process."""
    return Credentials(
        ruid=uid, euid=uid, suid=uid, rgid=gid, egid=gid, sgid=gid, groups=tuple(groups)
    )


class TestValidateUid:
    def test_accepts_zero(self):
        assert validate_uid(0) == 0

    def test_accepts_max(self):
        assert validate_uid(MAX_VALID_UID) == MAX_VALID_UID

    def test_rejects_negative(self):
        with pytest.raises(KernelError) as info:
            validate_uid(-1)
        assert info.value.errno is Errno.EINVAL

    def test_rejects_sign_bit(self):
        with pytest.raises(KernelError):
            validate_uid(0x80000000)

    def test_rejects_full_flip_root_representation(self):
        # The reason the paper could not use XOR 0xFFFFFFFF (Section 3.2).
        with pytest.raises(KernelError):
            validate_uid(0xFFFFFFFF)

    def test_rejects_bool(self):
        with pytest.raises(KernelError):
            validate_uid(True)

    def test_rejects_non_integer(self):
        with pytest.raises(KernelError):
            validate_uid("root")

    def test_gid_rules_match(self):
        assert validate_gid(33) == 33
        with pytest.raises(KernelError):
            validate_gid(-5)

    @given(valid_uids)
    def test_accepts_whole_valid_domain(self, uid):
        assert validate_uid(uid) == uid


class TestCredentialConstruction:
    def test_root_defaults(self):
        creds = root_credentials()
        assert creds.ruid == creds.euid == creds.suid == ROOT_UID
        assert creds.is_privileged()

    def test_user_credentials(self):
        creds = user_credentials(1000, 1000, groups=(33,))
        assert creds.euid == 1000
        assert not creds.is_privileged()
        assert creds.in_group(33)
        assert creds.in_group(1000)
        assert not creds.in_group(0)

    def test_invalid_uid_rejected_at_construction(self):
        with pytest.raises(KernelError):
            Credentials(ruid=-2)

    def test_copy_is_independent(self):
        creds = root_credentials()
        clone = creds.copy()
        clone.setuid(1000)
        assert creds.euid == ROOT_UID
        assert clone.euid == 1000

    def test_as_tuple_is_order_insensitive_for_groups(self):
        a = Credentials(groups=(3, 1, 2))
        b = Credentials(groups=(1, 2, 3))
        assert a.as_tuple() == b.as_tuple()


class TestSetuidSemantics:
    def test_root_setuid_drops_all_three(self):
        creds = root_credentials()
        creds.setuid(33)
        assert (creds.ruid, creds.euid, creds.suid) == (33, 33, 33)

    def test_drop_is_irrevocable(self):
        creds = root_credentials()
        creds.setuid(33)
        with pytest.raises(KernelError) as info:
            creds.setuid(0)
        assert info.value.errno is Errno.EPERM

    def test_unprivileged_can_switch_to_saved(self):
        creds = Credentials(ruid=1000, euid=1000, suid=1001)
        creds.setuid(1001)
        assert creds.euid == 1001

    def test_unprivileged_cannot_become_arbitrary(self):
        creds = user_credentials(1000, 1000)
        with pytest.raises(KernelError):
            creds.setuid(0)

    def test_seteuid_preserves_saved_for_reescalation(self):
        creds = root_credentials()
        creds.seteuid(33)
        assert creds.euid == 33
        assert creds.suid == ROOT_UID
        creds.seteuid(0)
        assert creds.is_privileged()

    def test_seteuid_unprivileged_restricted(self):
        creds = user_credentials(1000, 1000)
        with pytest.raises(KernelError):
            creds.seteuid(0)

    def test_setreuid_updates_saved(self):
        creds = root_credentials()
        creds.setreuid(1000, 1000)
        assert creds.suid == 1000

    def test_setreuid_minus_one_keeps_field(self):
        creds = root_credentials()
        creds.setreuid(-1, 33)
        assert creds.ruid == ROOT_UID
        assert creds.euid == 33

    def test_setresuid_full_control_for_root(self):
        creds = root_credentials()
        creds.setresuid(1, 2, 3)
        assert (creds.ruid, creds.euid, creds.suid) == (1, 2, 3)

    def test_setresuid_unprivileged_limited_to_current_ids(self):
        creds = Credentials(ruid=1000, euid=1001, suid=1002)
        creds.setresuid(1000, 1002, -1)
        assert creds.euid == 1002
        with pytest.raises(KernelError):
            creds.setresuid(0, -1, -1)

    def test_setgid_and_setegid(self):
        creds = root_credentials()
        creds.setegid(33)
        assert creds.egid == 33
        creds.setgid(34)
        assert (creds.rgid, creds.egid, creds.sgid) == (34, 34, 34)

    def test_setgroups_requires_privilege(self):
        creds = user_credentials(1000, 1000)
        with pytest.raises(KernelError):
            creds.setgroups((1, 2))

    @given(valid_uids)
    def test_root_can_drop_to_any_valid_uid(self, uid):
        creds = root_credentials()
        creds.setuid(uid)
        assert creds.euid == uid
        assert creds.is_privileged() == (uid == ROOT_UID)
