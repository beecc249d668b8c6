  line    calls    msgs        bytes  colls   time(ms)      %  source
------------------------------------------------------------------------------
     1                                                         % Image filtering (the MatlabMPI benchmark family): cross-stencil blur,
     2                                                         % unsharp mask, and gradient-magnitude edge blend over an n x n image.
     3                                                         n = 32;
     4                                                         steps = 2;
     5                                                         rand('seed', 42);
     6        1       0            0      0      0.009   0.2%  img = rand(n, n);
     7                                                         tau = 0.08;
     8        0       0            0      0      0.000   0.0%  sh_n = [-1, 0]; sh_s = [1, 0]; sh_w = [0, -1]; sh_e = [0, 1];
     9                                                         for s = 1:steps
    10        4       8         2048      2      0.677  18.3%      north = circshift(img, sh_n);
    11        4       8         2048      2      0.677  18.3%      south = circshift(img, sh_s);
    12        4       0            0      2      0.506  13.7%      west = circshift(img, sh_w);
    13        4       0            0      2      0.506  13.7%      east = circshift(img, sh_e);
    14        2       0            0      0      0.120   3.2%      blur = (north + south + west + east) ./ 8 + img ./ 2;
    15        2       0            0      0      0.069   1.8%      sharp = img + 1.5 .* (img - blur);
    16        2       0            0      0      0.086   2.3%      tone = blur .* blur .* (3 - 2 .* blur);
    17        2       0            0      0      0.051   1.4%      gv = (south - north) ./ 2;
    18        2       0            0      0      0.051   1.4%      gh = (east - west) ./ 2;
    19        2       0            0      0      0.086   2.3%      mag = sqrt(gv .* gv + gh .* gh);
    20        2       0            0      0      0.034   0.9%      edges = mag > tau;
    21        2       0            0      0      0.086   2.3%      out = edges .* sharp + (1 - edges) .* tone;
    22        4       0            0      0      0.069   1.9%      img = max(min(out, 1), 0);
    23                                                         end
    24        2       0            0      2      0.680  18.4%  total = sum(sum(img));
    25                                                         fprintf('imgfilter: n=%d steps=%d checksum=%.9f\n', n, steps, total);
------------------------------------------------------------------------------
 total       39      16         4096     10      3.706 100.0%  
elapsed: 0.003705652121212125 virtual seconds
canonical-sha256: 441908f6658812d378c0e0d07564dfbd24c4d7ea73eaae60161863e228a2a7ef
