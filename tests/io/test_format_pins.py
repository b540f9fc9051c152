"""Byte pins for both tally formats.

The RTLY wire codec and the ``.npz`` archive are persistent formats: a
change to either must be deliberate and come with a version bump.  These
pins hash the bytes each writes for one hand-built tally (no kernel run,
so no physics change can move them).  The archive is pinned member by
member — zip entries carry timestamps, the members do not.
"""

from __future__ import annotations

import hashlib
import zipfile

from repro.io import encode_tally, save_tally

CODEC_SHA256 = "5b0dd34d4b4f65de2fc0e15bb5de6e4a09a103426ac0295b405b383fadefe2fd"

ARCHIVE_MEMBER_SHA256 = {
    "header.npy": "13467f8e03d65c828a59b3788758c6c09acb62e081d966a77b24ecd1fa95a2ee",
    "absorbed_by_layer.npy": "0d45c85944fc6f8c6c99e71cc4145abee4e487a8f0772dd7b4081378673847d6",
    "absorption_grid.npy": "e7b7c9823a735278b6451a427aa99aa3d358183a4a2fcac71afecd2555255e4a",
    "path_grid.npy": "b52ebc9635aff60a14f3c3763502b8122efea6f897d4bfdf182d7f79d295940c",
    "pathlength_hist_edges.npy": "2fe4c0213f03a480e15bee953227a809bdb95779793420bdcc5738ecda214146",
    "pathlength_hist_counts.npy": "1ad84ff2037122ef095df91263550ee356a0b731af1bbe235e8cc81c1d21262b",
    "reflectance_rho_hist_edges.npy": "a32c2200bfde2eee672f8f3e127000b9df6562664d7e91dcfccdf72f8bc3fec4",
    "reflectance_rho_hist_counts.npy": "b673629f4b42c4edff5c18734d586135b91ed714814ef813ca2db5a89a6ef0a2",
    "penetration_hist_edges.npy": "aee6c05466c49e3e78002b44f629b170aeaa116b61a006a7c636d6edf4c856a4",
    "penetration_hist_counts.npy": "0bd5b0721d61311648f19e29cb23fad1f1b81c7d5bf40038956d23466d2872f6",
    "f0_absorbed_by_layer.npy": "e19cfb6807ff07e83044b7e72bc66943d4c87e97683a9c040d8580b8398590a1",
    "f0_absorption_grid.npy": "b77de82dad5b275cd873fd02fb3882c093d309e28b859ecbb21c5e81573d5951",
    "f0_path_grid.npy": "765547bcedd798db42a7698e9473b6b5b66560bdb8dae5abe509980fd0d529c1",
    "f0_pathlength_hist_edges.npy": "2fe4c0213f03a480e15bee953227a809bdb95779793420bdcc5738ecda214146",
    "f0_pathlength_hist_counts.npy": "6209e73ec97c1d6200b2359988a950a3ca4110b5fe20e190a1e512ff8a8d9060",
    "f0_reflectance_rho_hist_edges.npy": "a32c2200bfde2eee672f8f3e127000b9df6562664d7e91dcfccdf72f8bc3fec4",
    "f0_reflectance_rho_hist_counts.npy": "1706b894da68ad16900da7930a8d5556878a2cc9212a846706a68da3331227da",
    "f0_penetration_hist_edges.npy": "aee6c05466c49e3e78002b44f629b170aeaa116b61a006a7c636d6edf4c856a4",
    "f0_penetration_hist_counts.npy": "344e5d14fa355eec8e9b50f41156193cd3ac4541d1772eb9d45fb97856583a84",
    "f1_absorbed_by_layer.npy": "b9b75361e82916cef3001ca723d5e4998d4b1e98e5ee6d2f037ef3131a7bdb52",
    "f1_absorption_grid.npy": "9ed5732aed55b4074960121e87099dea18ca321d5cc7119866f7e38e23415040",
    "f1_path_grid.npy": "6d5560cd7e73b0721accbcdf108ce4e5446048d971b888fbdb24d8393f32fc94",
    "f1_pathlength_hist_edges.npy": "2fe4c0213f03a480e15bee953227a809bdb95779793420bdcc5738ecda214146",
    "f1_pathlength_hist_counts.npy": "b1ecedd06538f918cc7a84195549815e362f8321abfadf5431634e8beb05a878",
    "f1_reflectance_rho_hist_edges.npy": "a32c2200bfde2eee672f8f3e127000b9df6562664d7e91dcfccdf72f8bc3fec4",
    "f1_reflectance_rho_hist_counts.npy": "411c96d1daafc49772b9237a69e336a7c978694b677589009f996324e940c394",
    "f1_penetration_hist_edges.npy": "aee6c05466c49e3e78002b44f629b170aeaa116b61a006a7c636d6edf4c856a4",
    "f1_penetration_hist_counts.npy": "5af0ff754c3861738dc69bfe9754c4cf854636651db8b8ec29cde04848466d58",
    "p_layer_paths.npy": "1c7cec7c2d04d3741bf3e7650f3f7f535358b11930ba0d86c7f5d01ab4d75af7",
    "p_weight.npy": "280d2913014f90d2d50e97eac5a9fd240a12f407ea5b29288bf4d6a3c6986bc4",
    "p_opl.npy": "f5703d8b1e2fe7a69bbd71d7382c0cd1709899c1db592f3dd431c800f660ac95",
    "p_max_depth.npy": "8697594a3a0e3cbb3b721f40355bbcf3a96109f4ae23eafc569d7f22839ef500",
    "p_detector.npy": "4302b74c1518b5b47b650953956444df821e0616c963dc426ece2f89536f5ffe",
    "p_keys.npy": "edf57b3e7cc4d837db7a3b400e84ffa2cc07b6adc347edef9feabbc11c5183cb",
    "p_lengths.npy": "116e2270dc2934c667dba7a264c01ffd589a233b2fb3b9d7ddd58752803a47a0",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_codec_bytes_pinned(hand_built):
    tally, _ = hand_built
    assert _sha(bytes(encode_tally(tally))) == CODEC_SHA256


def test_archive_members_pinned(tmp_path, hand_built):
    tally, frontier = hand_built
    path = save_tally(
        tmp_path / "pin.npz",
        tally,
        provenance={"model": "hand", "n_photons": 8, "fingerprint": "ab" * 32},
        frontier=frontier,
    )
    with zipfile.ZipFile(path) as zf:
        members = {name: _sha(zf.read(name)) for name in zf.namelist()}
    assert members == ARCHIVE_MEMBER_SHA256
