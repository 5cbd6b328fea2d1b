package cpufeat

var widest = detect()

// detect returns the widest level this CPU runs.
func detect() Level {
	switch {
	case !detectAVX2():
		return Portable
	case detectAVX512():
		return AVX512
	}
	return AVX2
}

// detectAVX2 reads CPUID leaf 7 EBX bit 5 (AVX2), leaf 1 ECX bits 27
// (OSXSAVE) and 28 (AVX), and XCR0, whose bits 1 and 2 show that the OS
// saves the XMM and YMM state.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 || ecx&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// detectAVX512 reads CPUID leaf 7 EBX bits 16 (AVX512F) and 17
// (AVX512DQ), and XCR0, whose bits 1, 2, 5, 6 and 7 (0xE6) show that the
// OS saves the XMM, YMM, opmask and full ZMM state. Call it only once
// detectAVX2 has reported true: that checks leaf 7 exists and OSXSAVE is
// set, without which XGETBV faults.
func detectAVX512() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<17) != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0. It faults unless CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
